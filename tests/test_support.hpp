// Shared fixtures and helpers for the ffp test suite.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/objectives.hpp"
#include "partition/partition.hpp"
#include "util/fnv.hpp"

namespace ffp::testing {

/// Small graph families used by the parameterized property suites.
struct GraphCase {
  std::string name;
  Graph graph;
};

inline std::vector<GraphCase> property_graphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"grid6x6", make_grid2d(6, 6)});
  cases.push_back({"torus5x8", make_torus(5, 8)});
  cases.push_back({"path20", make_path(20)});
  cases.push_back({"cycle17", make_cycle(17)});
  cases.push_back({"complete9", make_complete(9)});
  cases.push_back({"barbell8", make_barbell(8, 2)});
  cases.push_back({"star16", make_star(16)});
  cases.push_back({"geo80", make_random_geometric(80, 0.22, 7)});
  cases.push_back(
      {"weighted_grid", with_random_weights(make_grid2d(7, 5), 0.5, 9.5, 3)});
  cases.push_back({"powerlaw", make_power_law(90, 4.0, 2.6, 11)});
  return cases;
}

/// Asserts structural validity: every vertex assigned to a part in range,
/// part stats consistent (via Partition::validate), and if expect_k >= 0,
/// exactly that many non-empty parts.
inline void expect_valid_partition(const Partition& p, int expect_k = -1) {
  ASSERT_NO_THROW(p.validate());
  const auto assign = p.assignment();
  for (VertexId v = 0; v < p.graph().num_vertices(); ++v) {
    ASSERT_GE(assign[static_cast<std::size_t>(v)], 0);
    ASSERT_LT(assign[static_cast<std::size_t>(v)], p.num_parts());
  }
  if (expect_k >= 0) {
    EXPECT_EQ(p.num_nonempty_parts(), expect_k);
  }
}

/// Golden digest for byte pins: FNV-1a over the assignment, then over each
/// extra word (a value's bits via bits(), a counter). Two runs of one build
/// agreeing says nothing about a changed tie rule or visiting order; a
/// digest recorded once does.
inline std::uint64_t partition_digest(
    const Partition& p, std::initializer_list<std::uint64_t> extra = {}) {
  std::uint64_t h = kFnvBasisShort;
  for (const int q : p.assignment()) {
    h = fnv1a_word(static_cast<std::uint64_t>(q), h);
  }
  for (const std::uint64_t word : extra) h = fnv1a_word(word, h);
  return h;
}

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Custom (non-builtin) objective: total cut pairs, duplicated so an
/// ObjectiveTracker cannot recognize it as the built-in singleton and takes
/// the ObjectiveFn::move_delta path.
class CustomCut final : public ObjectiveFn {
 public:
  std::string_view name() const override { return "CustomCut"; }
  double evaluate(const Partition& p) const override {
    return p.total_cut_pairs();
  }
  double move_delta(const Partition& p, VertexId v, int target) const override {
    if (p.part_of(v) == target) return 0.0;
    const auto prof = p.move_profile(v, target);
    return 2.0 * (prof.ext_from - prof.ext_to);
  }
};

}  // namespace ffp::testing
