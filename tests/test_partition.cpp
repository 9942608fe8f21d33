#include "partition/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ffp {
namespace {

TEST(Partition, InitialAllInPartZero) {
  const auto g = make_grid2d(3, 3);
  Partition p(g, 4);
  EXPECT_EQ(p.num_parts(), 4);
  EXPECT_EQ(p.num_nonempty_parts(), 1);
  EXPECT_EQ(p.part_size(0), 9);
  EXPECT_DOUBLE_EQ(p.part_cut(0), 0.0);
  EXPECT_DOUBLE_EQ(p.total_cut_pairs(), 0.0);
}

TEST(Partition, FromAssignmentComputesStats) {
  // Path 0-1-2-3, split {0,1} | {2,3}: one cut edge (1,2).
  const auto g = make_path(4);
  const std::vector<int> assign = {0, 0, 1, 1};
  const auto p = Partition::from_assignment(g, assign);
  EXPECT_EQ(p.num_parts(), 2);
  EXPECT_DOUBLE_EQ(p.edge_cut(), 1.0);
  EXPECT_DOUBLE_EQ(p.total_cut_pairs(), 2.0);
  EXPECT_DOUBLE_EQ(p.part_cut(0), 1.0);
  EXPECT_DOUBLE_EQ(p.part_internal(0), 2.0);  // ordered pairs: edge (0,1) x2
}

TEST(Partition, FromAssignmentDeducesK) {
  const auto g = make_path(3);
  const std::vector<int> assign = {0, 2, 2};
  const auto p = Partition::from_assignment(g, assign);
  EXPECT_EQ(p.num_parts(), 3);
  EXPECT_EQ(p.num_nonempty_parts(), 2);
  EXPECT_EQ(p.part_size(1), 0);
}

TEST(Partition, FromAssignmentRejectsOutOfRange) {
  const auto g = make_path(3);
  const std::vector<int> assign = {0, 1, 5};
  EXPECT_THROW(Partition::from_assignment(g, assign, 2), Error);
}

TEST(Partition, SingletonsOnePartPerVertex) {
  const auto g = make_cycle(5);
  const auto p = Partition::singletons(g);
  EXPECT_EQ(p.num_nonempty_parts(), 5);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(p.part_size(p.part_of(v)), 1);
    EXPECT_DOUBLE_EQ(p.part_internal(p.part_of(v)), 0.0);
    EXPECT_DOUBLE_EQ(p.part_cut(p.part_of(v)), 2.0);
  }
  EXPECT_DOUBLE_EQ(p.edge_cut(), 5.0);
}

TEST(Partition, MoveUpdatesCutIncrementally) {
  const auto g = make_path(4);
  auto p = Partition::from_assignment(g, std::vector<int>{0, 0, 1, 1});
  p.move(1, 1);  // now {0} | {1,2,3}
  EXPECT_DOUBLE_EQ(p.edge_cut(), 1.0);
  EXPECT_EQ(p.part_size(0), 1);
  EXPECT_EQ(p.part_size(1), 3);
  EXPECT_NO_THROW(p.validate());
}

TEST(Partition, MoveToSamePartIsNoop) {
  const auto g = make_path(4);
  auto p = Partition::from_assignment(g, std::vector<int>{0, 0, 1, 1});
  const double cut = p.edge_cut();
  p.move(0, 0);
  EXPECT_DOUBLE_EQ(p.edge_cut(), cut);
}

TEST(Partition, EmptyingPartUpdatesNonempty) {
  const auto g = make_path(3);
  auto p = Partition::from_assignment(g, std::vector<int>{0, 1, 1});
  EXPECT_EQ(p.num_nonempty_parts(), 2);
  p.move(0, 1);
  EXPECT_EQ(p.num_nonempty_parts(), 1);
  EXPECT_EQ(p.part_size(0), 0);
  EXPECT_DOUBLE_EQ(p.part_cut(0), 0.0);
  EXPECT_DOUBLE_EQ(p.edge_cut(), 0.0);
  p.move(2, 0);  // revive the empty slot
  EXPECT_EQ(p.num_nonempty_parts(), 2);
  EXPECT_NO_THROW(p.validate());
}

TEST(Partition, MakePartAddsEmptySlot) {
  const auto g = make_path(3);
  auto p = Partition::from_assignment(g, std::vector<int>{0, 0, 0});
  const int fresh = p.make_part();
  EXPECT_EQ(fresh, 1);
  EXPECT_EQ(p.num_parts(), 2);
  EXPECT_EQ(p.part_size(fresh), 0);
  p.move(2, fresh);
  EXPECT_EQ(p.part_size(fresh), 1);
  EXPECT_NO_THROW(p.validate());
}

TEST(Partition, ExtDegreeCountsTargetPartOnly) {
  const auto g = make_complete(4);
  auto p = Partition::from_assignment(g, std::vector<int>{0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(p.ext_degree(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(p.ext_degree(0, 0), 1.0);  // own part: neighbor 1
}

TEST(Partition, MoveProfileMatchesExtDegrees) {
  const auto g = make_grid2d(4, 4);
  auto p = Partition::from_assignment(
      g, std::vector<int>{0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int t = 0; t < 4; ++t) {
      if (t == p.part_of(v)) continue;  // ext_to undefined for own part
      const auto prof = p.move_profile(v, t);
      EXPECT_DOUBLE_EQ(prof.ext_from, p.ext_degree(v, p.part_of(v)));
      EXPECT_DOUBLE_EQ(prof.ext_to, p.ext_degree(v, t));
    }
  }
}

TEST(Partition, NeighborPartsMatchMoveProfileBitwise) {
  // The one scan must hand back exactly the profile move_profile would
  // compute for every adjacent target, in first-seen neighbor order, so a
  // move priced and applied from it is bit-identical to a scanned one.
  const auto g = with_random_weights(make_grid2d(7, 7), 0.5, 9.5, 14);
  std::vector<int> assign(49);
  Rng rng(15);
  for (auto& a : assign) a = static_cast<int>(rng.below(5));
  const auto p = Partition::from_assignment(g, assign, 5);
  PartMarkScratch adjacent;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Weight own = p.neighbor_parts(v, adjacent);
    std::vector<int> first_seen;
    for (VertexId u : g.neighbors(v)) {
      const int q = p.part_of(u);
      if (q != p.part_of(v) &&
          std::find(first_seen.begin(), first_seen.end(), q) ==
              first_seen.end()) {
        first_seen.push_back(q);
      }
    }
    ASSERT_TRUE(std::ranges::equal(adjacent.marked(), first_seen));
    EXPECT_EQ(own, p.move_profile(v, p.part_of(v)).ext_from);
    for (const int t : adjacent.marked()) {
      const auto prof = p.move_profile(v, t);
      EXPECT_EQ(own, prof.ext_from);  // bitwise, not NEAR
      EXPECT_EQ(adjacent.weight(t), prof.ext_to);
    }
  }
}

TEST(Partition, ConnectionsMatchBruteForce) {
  const auto g = with_random_weights(make_grid2d(5, 5), 1.0, 3.0, 6);
  std::vector<int> assign(25);
  Rng rng(12);
  for (auto& a : assign) a = static_cast<int>(rng.below(4));
  const auto p = Partition::from_assignment(g, assign, 4);
  PartMarkScratch conns;
  for (int q : p.nonempty_parts()) {
    p.connections(q, conns);
    // Brute force.
    std::vector<Weight> expect(4, 0.0);
    for (VertexId v : p.members(q)) {
      const auto nbrs = g.neighbors(v);
      const auto ws = g.neighbor_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (p.part_of(nbrs[i]) != q) {
          expect[static_cast<std::size_t>(p.part_of(nbrs[i]))] += ws[i];
        }
      }
    }
    std::vector<Weight> got(4, 0.0);
    for (const int b : conns.marked()) {
      EXPECT_GT(conns.weight(b), 0.0);
      got[static_cast<std::size_t>(b)] = conns.weight(b);
    }
    for (int b = 0; b < 4; ++b) {
      EXPECT_NEAR(got[static_cast<std::size_t>(b)],
                  expect[static_cast<std::size_t>(b)], 1e-9);
    }
  }
}

TEST(Partition, CompactRenumbersNonempty) {
  const auto g = make_path(4);
  auto p = Partition::from_assignment(g, std::vector<int>{0, 3, 3, 0}, 6);
  EXPECT_EQ(p.num_parts(), 6);
  const auto remap = p.compact();
  EXPECT_EQ(p.num_parts(), 2);
  EXPECT_EQ(p.num_nonempty_parts(), 2);
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[3], 1);
  EXPECT_EQ(remap[1], -1);
  EXPECT_NO_THROW(p.validate());
}

// Property: a long random move sequence keeps every incremental statistic
// equal to a from-scratch recomputation, across graph families.
class PartitionMoveProperty
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionMoveProperty, RandomMovesStayConsistent) {
  const auto cases = testing::property_graphs();
  const auto& tc = cases[GetParam()];
  const Graph& g = tc.graph;
  const int k = 4;
  Rng rng(1000 + GetParam());

  std::vector<int> assign(static_cast<std::size_t>(g.num_vertices()));
  for (auto& a : assign) a = static_cast<int>(rng.below(k));
  auto p = Partition::from_assignment(g, assign, k);

  for (int step = 0; step < 400; ++step) {
    const auto v = static_cast<VertexId>(
        rng.below(static_cast<std::uint64_t>(g.num_vertices())));
    const int t = static_cast<int>(rng.below(k));
    p.move(v, t);
    if (step % 97 == 0) {
      ASSERT_NO_THROW(p.validate()) << tc.name;
    }
  }
  ASSERT_NO_THROW(p.validate()) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphFamilies, PartitionMoveProperty,
    ::testing::Range<std::size_t>(0, 10),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return ffp::testing::property_graphs()[info.param].name;
    });

}  // namespace
}  // namespace ffp
