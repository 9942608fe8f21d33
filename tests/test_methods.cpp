#include "benchlib/methods.hpp"

#include <gtest/gtest.h>

#include <set>

#include "atc/core_area.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

/// Small core-area-shaped graph so every method runs in milliseconds.
const Graph& small_atc() {
  static const Graph g = [] {
    CoreAreaOptions opt;
    opt.n_sectors = 140;
    opt.n_edges = 520;
    opt.seed = 11;
    return make_core_area_graph(opt).graph;
  }();
  return g;
}

TEST(Methods, RegistryHasAll17PaperRows) {
  const auto methods = table1_methods();
  ASSERT_EQ(methods.size(), 17u);
  const std::vector<std::string> expected = {
      "Linear (Bi)",
      "Linear (Bi, KL)",
      "Linear (Oct, KL)",
      "Spectral (Lanc, Bi)",
      "Spectral (Lanc, Bi, KL)",
      "Spectral (Lanc, Oct)",
      "Spectral (Lanc, Oct, KL)",
      "Spectral (RQI, Bi)",
      "Spectral (RQI, Bi, KL)",
      "Spectral (RQI, Oct)",
      "Spectral (RQI, Oct, KL)",
      "Multilevel (Bi)",
      "Multilevel (Oct)",
      "Percolation",
      "Simulated annealing",
      "Ant colony",
      "Fusion Fission",
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(methods[i].name, expected[i]);
  }
}

TEST(Methods, MetaheuristicFlagsMatchPaper) {
  const auto methods = table1_methods();
  std::set<std::string> meta;
  for (const auto& m : methods) {
    if (m.is_metaheuristic) meta.insert(m.name);
  }
  EXPECT_EQ(meta, (std::set<std::string>{"Simulated annealing", "Ant colony",
                                         "Fusion Fission"}));
}

TEST(Methods, LookupByName) {
  const auto methods = table1_methods();
  EXPECT_EQ(method_by_name(methods, "Fusion Fission").name, "Fusion Fission");
  EXPECT_THROW(method_by_name(methods, "Does Not Exist"), Error);
}

TEST(Methods, EveryRowProducesValidKPartition) {
  const auto methods = table1_methods();
  const Graph& g = small_atc();
  for (const auto& m : methods) {
    api::SolveSpec spec;
    spec.k = 8;
    spec.objective = ObjectiveKind::MinMaxCut;
    spec.budget_ms = 150.0;
    spec.seed = 3;
    const auto p = m.run(g, spec);
    SCOPED_TRACE(m.name);
    ffp::testing::expect_valid_partition(p, 8);
  }
}

TEST(Methods, DeterministicRowsReproduce) {
  const auto methods = table1_methods();
  const Graph& g = small_atc();
  for (const auto& m : methods) {
    if (m.is_metaheuristic) continue;  // budgeted rows depend on wall clock
    api::SolveSpec spec;
    spec.k = 8;
    spec.seed = 5;
    const auto a = m.run(g, spec);
    const auto b = m.run(g, spec);
    SCOPED_TRACE(m.name);
    EXPECT_TRUE(std::equal(a.assignment().begin(), a.assignment().end(),
                           b.assignment().begin()));
  }
}

TEST(Methods, DeterministicRowBytesArePinned) {
  // Golden digests recorded once, one per deterministic row (k 8, seed 5):
  // the multilevel and spectral rows run k-way FM and rebalance, the KL
  // rows read part connections.
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"Linear (Bi)", 0x122dd52da7c13343ull},
      {"Linear (Bi, KL)", 0xfbb5870e916bcc23ull},
      {"Linear (Oct, KL)", 0x00b05e3bb259bba3ull},
      {"Spectral (Lanc, Bi)", 0xbbe790c892136342ull},
      {"Spectral (Lanc, Bi, KL)", 0xfaec42d183767e44ull},
      {"Spectral (Lanc, Oct)", 0xbe6100244b8ffe80ull},
      {"Spectral (Lanc, Oct, KL)", 0x8cd9e6e9d481d784ull},
      {"Spectral (RQI, Bi)", 0xb04d7bc16e3459e3ull},
      {"Spectral (RQI, Bi, KL)", 0xfaec42d183767e44ull},
      {"Spectral (RQI, Oct)", 0x5a79264943858fc7ull},
      {"Spectral (RQI, Oct, KL)", 0x3ffa5dcb6fe2ac61ull},
      {"Multilevel (Bi)", 0x7396ba03355a94e6ull},
      {"Multilevel (Oct)", 0xf3363e6aee2ce827ull},
      {"Percolation", 0x42fe49c881b46e25ull},
  };
  const auto methods = table1_methods();
  const Graph& g = small_atc();
  for (const auto& [name, digest] : expected) {
    api::SolveSpec spec;
    spec.k = 8;
    spec.seed = 5;
    const auto p = method_by_name(methods, name).run(g, spec);
    EXPECT_EQ(ffp::testing::partition_digest(p), digest) << name;
  }
}

TEST(Methods, MetaheuristicsRespectObjectiveChoice) {
  const auto methods = table1_methods();
  const Graph& g = small_atc();
  for (const char* name :
       {"Simulated annealing", "Ant colony", "Fusion Fission"}) {
    const auto& m = method_by_name(methods, name);
    api::SolveSpec spec;
    spec.k = 8;
    spec.budget_ms = 200.0;
    spec.seed = 7;
    spec.objective = ObjectiveKind::Cut;
    const auto cut_run = m.run(g, spec);
    spec.objective = ObjectiveKind::MinMaxCut;
    const auto mcut_run = m.run(g, spec);
    SCOPED_TRACE(name);
    // Each optimizes its own criterion at least as well as the other's
    // output scores under that criterion (weak but meaningful check).
    const double cut_of_cutrun =
        objective(ObjectiveKind::Cut).evaluate(cut_run);
    const double cut_of_mcutrun =
        objective(ObjectiveKind::Cut).evaluate(mcut_run);
    EXPECT_LE(cut_of_cutrun, cut_of_mcutrun * 1.6 + 1e-9);
  }
}

TEST(Methods, RecorderIsFedByMetaheuristics) {
  const auto methods = table1_methods();
  const Graph& g = small_atc();
  const auto& ff = method_by_name(methods, "Fusion Fission");
  AnytimeRecorder rec;
  api::SolveSpec spec;
  spec.k = 8;
  spec.budget_ms = 200.0;
  ff.run(g, spec, &rec);
  EXPECT_GE(rec.points().size(), 1u);
}

}  // namespace
}  // namespace ffp
