#include "metaheuristics/percolation.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "multilevel/coarsen.hpp"
#include "partition/balance.hpp"
#include "partition/objectives.hpp"
#include "test_support.hpp"
#include "util/fnv.hpp"

namespace ffp {
namespace {

TEST(SpreadSeeds, DistinctAndInRange) {
  const auto g = make_grid2d(8, 8);
  Rng rng(3);
  const auto seeds = spread_seeds(g, 7, rng);
  std::set<VertexId> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 7u);
  for (VertexId s : seeds) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 64);
  }
}

TEST(SpreadSeeds, PathSeedsAreSpread) {
  const auto g = make_path(30);
  Rng rng(5);
  const auto seeds = spread_seeds(g, 2, rng);
  EXPECT_GE(std::abs(seeds[0] - seeds[1]), 10);
}

TEST(SpreadSeeds, RejectsTooMany) {
  const auto g = make_path(3);
  Rng rng(7);
  EXPECT_THROW(spread_seeds(g, 4, rng), Error);
}

TEST(Percolate, SeedsKeepTheirColor) {
  const auto g = make_grid2d(6, 6);
  const VertexId seeds[3] = {0, 17, 35};
  const auto assign = percolate(g, std::span<const VertexId>(seeds, 3));
  EXPECT_EQ(assign[0], 0);
  EXPECT_EQ(assign[17], 1);
  EXPECT_EQ(assign[35], 2);
}

TEST(Percolate, CoversEveryVertex) {
  const auto g = make_torus(7, 7);
  const VertexId seeds[4] = {0, 10, 24, 40};
  const auto assign = percolate(g, std::span<const VertexId>(seeds, 4));
  for (int a : assign) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
  }
}

TEST(Percolate, TwoSeedsOnPathSplitInMiddle) {
  const auto g = make_path(20);
  const VertexId seeds[2] = {0, 19};
  const auto assign = percolate(g, std::span<const VertexId>(seeds, 2));
  // Each side claims its half (synchronized dripping).
  EXPECT_EQ(assign[2], 0);
  EXPECT_EQ(assign[17], 1);
  const auto p = Partition::from_assignment(g, assign, 2);
  EXPECT_LE(imbalance(p, 2), 1.25);
}

TEST(Percolate, RejectsDuplicateSeeds) {
  const auto g = make_path(5);
  const VertexId seeds[2] = {1, 1};
  EXPECT_THROW(percolate(g, std::span<const VertexId>(seeds, 2)), Error);
}

TEST(Percolate, DisconnectedGetsRoundRobin) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}};
  const auto g = Graph::from_edges(4, edges);
  const VertexId seeds[2] = {0, 1};
  const auto assign = percolate(g, std::span<const VertexId>(seeds, 2));
  // Vertices 2,3 are unreachable; they still get colors.
  EXPECT_GE(assign[2], 0);
  EXPECT_GE(assign[3], 0);
}

TEST(PercolationPartition, ValidKParts) {
  const auto g = with_random_weights(make_grid2d(10, 10), 1.0, 5.0, 9);
  PercolationOptions opt;
  opt.seed = 10;
  const auto p = percolation_partition(g, 6, opt);
  ffp::testing::expect_valid_partition(p, 6);
}

TEST(PercolationPartition, ReasonableBalanceOnUniformGrid) {
  // Percolation does not enforce balance (it is the paper's weakest row);
  // this guards against pathological collapse, not perfect balance.
  const auto g = make_grid2d(12, 12);
  const auto p = percolation_partition(g, 4, {});
  EXPECT_LE(imbalance(p, 4), 2.5);
}

TEST(PercolationPartition, NoZeroInternalParts) {
  // The starved-part fixup must leave every part with internal weight.
  const auto g = with_random_weights(make_grid2d(9, 9), 0.5, 20.0, 12);
  const auto p = percolation_partition(g, 8, {});
  for (int q : p.nonempty_parts()) {
    if (p.part_size(q) >= 2) {
      EXPECT_GT(p.part_internal(q), 0.0) << "part " << q;
    }
  }
}

TEST(PercolationPartition, DeterministicForSeed) {
  const auto g = make_torus(8, 8);
  PercolationOptions opt;
  opt.seed = 21;
  const auto a = percolation_partition(g, 5, opt);
  const auto b = percolation_partition(g, 5, opt);
  EXPECT_TRUE(std::equal(a.assignment().begin(), a.assignment().end(),
                         b.assignment().begin()));
}

TEST(PercolationBisect, LabelsAreBinaryAndNonEmpty) {
  const auto g = make_grid2d(7, 7);
  std::vector<VertexId> all(49);
  for (VertexId v = 0; v < 49; ++v) all[static_cast<std::size_t>(v)] = v;
  Rng rng(31);
  const auto side = percolation_bisect(g, all, rng);
  ASSERT_EQ(side.size(), 49u);
  EXPECT_GT(std::count(side.begin(), side.end(), 0), 0);
  EXPECT_GT(std::count(side.begin(), side.end(), 1), 0);
}

TEST(PercolationBisect, SubsetOfGraph) {
  const auto g = make_grid2d(8, 8);
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < 32; ++v) subset.push_back(v);
  Rng rng(33);
  const auto side = percolation_bisect(g, subset, rng);
  EXPECT_EQ(side.size(), subset.size());
}

TEST(PercolationBisect, DisconnectedSubsetSplitsByComponent) {
  const auto g = make_path(10);
  // {0,1,2} and {7,8,9} are disconnected inside the induced subgraph.
  const std::vector<VertexId> subset = {0, 1, 2, 7, 8, 9};
  Rng rng(35);
  const auto side = percolation_bisect(g, subset, rng);
  // Components must not be split: 0,1,2 together and 7,8,9 together.
  EXPECT_EQ(side[0], side[1]);
  EXPECT_EQ(side[1], side[2]);
  EXPECT_EQ(side[3], side[4]);
  EXPECT_EQ(side[4], side[5]);
  EXPECT_NE(side[0], side[3]);
}

TEST(PercolationBisect, RejectsTinySubset) {
  const auto g = make_path(5);
  const std::vector<VertexId> one = {2};
  Rng rng(37);
  EXPECT_THROW(percolation_bisect(g, one, rng), Error);
}

TEST(PercolationPartition, HeavyRegionsGetMoreSeeds) {
  // Two cliques joined by a weak path; percolation across the whole graph
  // should not put everything in one part.
  const auto g = make_barbell(15, 3);
  const auto p = percolation_partition(g, 2, {});
  EXPECT_LE(imbalance(p, 2), 1.4);
  // The cut should avoid clique interiors.
  EXPECT_LE(p.edge_cut(), 3.0);
}

// The fission cutter's bytes on weighted graphs, where the farthest-point
// sweeps run Dijkstra: one digest of the sides of 128 seeded bisections.
// Each set is a BFS-grown region (an atom-like connected set) of 2–301
// vertices; every fourth keeps a random half of its region, so the
// disconnected branch runs too. The real-weighted geometric graph has
// distinct flow lengths; the coarse grid level has integer weights and so
// many equal distances, which the sweeps' tie rule decides.
std::uint64_t bisection_digest(const Graph& g) {
  std::uint64_t h = kFnvBasisShort;
  std::vector<int> side;
  std::vector<char> in(static_cast<std::size_t>(g.num_vertices()), 0);
  for (std::uint64_t i = 0; i < 128; ++i) {
    Rng pick(i + 1);
    const auto want = static_cast<std::size_t>(2 + pick.below(300));
    std::vector<VertexId> region = {static_cast<VertexId>(
        pick.below(static_cast<std::uint64_t>(g.num_vertices())))};
    in[static_cast<std::size_t>(region[0])] = 1;
    for (std::size_t head = 0; head < region.size() && region.size() < want;
         ++head) {
      for (const VertexId u : g.neighbors(region[head])) {
        if (in[static_cast<std::size_t>(u)] || region.size() == want) continue;
        in[static_cast<std::size_t>(u)] = 1;
        region.push_back(u);
      }
    }
    for (const VertexId v : region) in[static_cast<std::size_t>(v)] = 0;
    std::vector<VertexId> set;
    for (const VertexId v : region) {
      if (i % 4 != 3 || pick.below(2) == 0) set.push_back(v);
    }
    if (set.size() < 2) set = {region[0], region[1]};
    Rng rng(1000 + i);
    percolation_bisect_into(g, set, rng, side);
    for (const int s : side) h = fnv1a_word(static_cast<std::uint64_t>(s), h);
  }
  return h;
}

TEST(PercolationBisect, WeightedSweepBytesArePinned) {
  const auto geometric =
      with_random_weights(make_random_geometric(2048, 0.077, 9), 1.0, 10.0, 9);
  ASSERT_FALSE(geometric.has_uniform_edge_weights());
  CoarsenOptions copt;
  copt.min_vertices = 1024;
  const auto chain = coarsen_chain(make_grid2d(64, 64), copt);
  ASSERT_FALSE(chain.empty());
  const Graph& coarse_grid = chain.back().coarse;
  ASSERT_FALSE(coarse_grid.has_uniform_edge_weights());
  EXPECT_EQ(bisection_digest(geometric), 0x7b2c35829d906623ull);
  EXPECT_EQ(bisection_digest(coarse_grid), 0xaa4ac1c41de9a003ull);
}

}  // namespace
}  // namespace ffp
