// End-to-end integration: the paper's pipeline on a reduced ATC instance —
// percolation initializes SA/ACO, FF self-initializes, specific tools
// (spectral/multilevel) provide the fast baselines, and the qualitative
// relationships the paper reports must hold.
#include <gtest/gtest.h>

#include "atc/core_area.hpp"
#include "benchlib/methods.hpp"
#include "core/fusion_fission.hpp"
#include "graph/io.hpp"
#include "metaheuristics/annealing.hpp"
#include "metaheuristics/percolation.hpp"
#include "multilevel/multilevel.hpp"
#include "partition/balance.hpp"
#include "spectral/linear_partition.hpp"
#include "spectral/spectral_partition.hpp"
#include "test_support.hpp"

#include <sstream>

namespace ffp {
namespace {

struct Instance {
  Graph graph;
  int k = 8;
};

const Instance& instance() {
  static const Instance inst = [] {
    CoreAreaOptions opt;
    opt.n_sectors = 190;
    opt.n_edges = 760;
    opt.seed = 2006;
    return Instance{make_core_area_graph(opt).graph, 8};
  }();
  return inst;
}

TEST(Integration, SpectralBeatsLinearOnCutAtPaperScale) {
  // At the paper's scale (762 sectors, k = 32) the Table-1 ordering
  // Linear > Spectral on Cut is clear-cut; tiny instances can flip it
  // because the spatially ordered ids make Linear surprisingly strong.
  const auto core = make_core_area_graph();
  const auto methods = table1_methods();
  api::SolveSpec spec;
  spec.k = 32;
  spec.seed = 1;
  const auto spectral =
      method_by_name(methods, "Spectral (Lanc, Bi)").run(core.graph, spec);
  const auto linear =
      method_by_name(methods, "Linear (Bi)").run(core.graph, spec);
  EXPECT_LT(spectral.edge_cut(), linear.edge_cut());
}

TEST(Integration, MultilevelCompetitiveWithSpectral) {
  const auto& [g, k] = instance();
  const auto ml = multilevel_partition(g, k, {});
  const auto sp = spectral_partition(g, k, {});
  // The paper has them within a few percent of each other on Cut.
  EXPECT_LT(ml.edge_cut(), sp.edge_cut() * 1.3);
}

TEST(Integration, FusionFissionBeatsSpecificToolsOnMcut) {
  // The paper's headline: metaheuristics (FF first) win on Mcut.
  const auto& [g, k] = instance();
  const auto ml = multilevel_partition(g, k, {});
  const double ml_mcut = objective(ObjectiveKind::MinMaxCut).evaluate(ml);

  FusionFissionOptions opt;
  opt.objective = ObjectiveKind::MinMaxCut;
  opt.seed = 1;
  FusionFission ff(g, k, opt);
  const auto res = ff.run(StopCondition::after_millis(2500));
  EXPECT_LT(res.best_value, ml_mcut);
}

TEST(Integration, AnnealingImprovesPercolationSubstantially) {
  const auto& [g, k] = instance();
  const auto init = percolation_partition(g, k, {});
  const double init_mcut =
      objective(ObjectiveKind::MinMaxCut).evaluate(init);
  AnnealingOptions opt;
  opt.objective = ObjectiveKind::MinMaxCut;
  opt.seed = 2;
  SimulatedAnnealing sa(g, k, opt);
  const auto res = sa.run(init, StopCondition::after_millis(1500));
  EXPECT_LT(res.best_value, init_mcut * 0.8);
}

TEST(Integration, FusionFissionGoodAcrossNeighboringK) {
  // §6: "if fusion fission returns a 32-partition, it returns good
  // solutions from 27 to 38 partitions" — scaled to our k=8 instance.
  const auto& [g, k] = instance();
  FusionFissionOptions opt;
  opt.objective = ObjectiveKind::MinMaxCut;
  opt.seed = 3;
  FusionFission ff(g, k, opt);
  const auto res = ff.run(StopCondition::after_millis(2500));
  int neighbors_seen = 0;
  for (int kk = k - 2; kk <= k + 2; ++kk) {
    if (res.best_by_part_count.count(kk) > 0) ++neighbors_seen;
  }
  EXPECT_GE(neighbors_seen, 3);
}

TEST(Integration, PartitionRoundTripsThroughChacoFiles) {
  const auto& [g, k] = instance();
  const auto p = multilevel_partition(g, k, {});
  std::ostringstream graph_out, part_out;
  write_chaco(g, graph_out);
  write_partition(p.assignment(), part_out);

  std::istringstream graph_in(graph_out.str());
  std::istringstream part_in(part_out.str());
  const auto g2 = read_chaco(graph_in);
  const auto assign2 = read_partition(part_in);
  const auto p2 = Partition::from_assignment(g2, assign2, k);
  EXPECT_NEAR(p2.edge_cut(), p.edge_cut(), 1e-6);
  EXPECT_NEAR(objective(ObjectiveKind::MinMaxCut).evaluate(p2),
              objective(ObjectiveKind::MinMaxCut).evaluate(p), 1e-6);
}

TEST(Integration, AllMethodsBeatRandomBaseline) {
  const auto& [g, k] = instance();
  // Random baseline cut expectation: (1 − 1/k) of total weight.
  const double random_cut_pairs =
      2.0 * g.total_edge_weight() * (1.0 - 1.0 / k);
  for (const auto& m : table1_methods()) {
    api::SolveSpec spec;
    spec.k = k;
    spec.objective = ObjectiveKind::Cut;
    spec.budget_ms = 400.0;
    spec.seed = 4;
    const auto p = m.run(g, spec);
    SCOPED_TRACE(m.name);
    EXPECT_LT(p.total_cut_pairs(), random_cut_pairs);
  }
}

TEST(Integration, MetaheuristicsTolerateDisconnectedGraphs) {
  // Failure injection: two islands; everything must still terminate with a
  // valid k-partition.
  std::vector<WeightedEdge> edges;
  const auto grid = make_grid2d(6, 6);
  for (VertexId v = 0; v < 36; ++v) {
    for (VertexId u : grid.neighbors(v)) {
      if (u > v) {
        edges.push_back({v, u, 1.0});
        edges.push_back({v + 36, u + 36, 1.0});
      }
    }
  }
  const auto g = Graph::from_edges(72, edges);

  FusionFissionOptions ffopt;
  ffopt.seed = 5;
  FusionFission ff(g, 4, ffopt);
  const auto ffres = ff.run(StopCondition::after_steps(2500));
  ffp::testing::expect_valid_partition(ffres.best, 4);

  const auto perc = percolation_partition(g, 4, {});
  ffp::testing::expect_valid_partition(perc, 4);

  AnnealingOptions saopt;
  saopt.seed = 6;
  SimulatedAnnealing sa(g, 4, saopt);
  const auto sares = sa.run(perc, StopCondition::after_steps(15000));
  ffp::testing::expect_valid_partition(sares.best, 4);
}

}  // namespace
}  // namespace ffp
