#include "core/fusion_fission.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "metaheuristics/percolation.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

Graph test_graph() {
  return with_random_weights(make_grid2d(9, 9), 1.0, 7.0, 5);
}

/// A real-weighted grid in which every third edge weighs 0, so a nucleon
/// can border another atom through zero-weight edges only — the case
/// pick_ejected's interior rule ("no positive external weight") decides.
Graph zero_weight_grid() {
  const Graph base = with_random_weights(make_grid2d(20, 20), 1.0, 10.0, 8);
  std::vector<WeightedEdge> edges;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    const auto nbrs = base.neighbors(v);
    const auto ws = base.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] < v) continue;
      edges.push_back({v, nbrs[i], edges.size() % 3 == 0 ? 0.0 : ws[i]});
    }
  }
  return Graph::from_edges(base.num_vertices(), edges);
}

/// Digest of a run: its assignment, the bits of its value and every counter.
std::uint64_t run_digest(const FusionFissionResult& res) {
  using ffp::testing::bits;
  return ffp::testing::partition_digest(
      res.best, {bits(res.best_value), static_cast<std::uint64_t>(res.steps),
                 static_cast<std::uint64_t>(res.fusions),
                 static_cast<std::uint64_t>(res.fissions),
                 static_cast<std::uint64_t>(res.ejections),
                 static_cast<std::uint64_t>(res.reheats)});
}

TEST(FusionFission, InitializeReachesTargetPartCount) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 3;
  FusionFission ff(g, 6, opt);
  const auto init = ff.initialize();
  ffp::testing::expect_valid_partition(init);
  EXPECT_LE(init.num_nonempty_parts(), 8);
  EXPECT_GE(init.num_nonempty_parts(), 2);
}

TEST(FusionFission, RunReturnsExactlyKParts) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 5;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(3000));
  ffp::testing::expect_valid_partition(res.best, 6);
  EXPECT_NEAR(objective(opt.objective).evaluate(res.best), res.best_value,
              1e-7);
}

TEST(FusionFission, VertexConservationThroughout) {
  // Every vertex stays assigned to exactly one part — guaranteed by the
  // Partition invariants, revalidated on the result.
  const auto g = make_torus(8, 8);
  FusionFissionOptions opt;
  opt.seed = 7;
  FusionFission ff(g, 4, opt);
  const auto res = ff.run(StopCondition::after_steps(2000));
  int total = 0;
  for (int q : res.best.nonempty_parts()) total += res.best.part_size(q);
  EXPECT_EQ(total, g.num_vertices());
}

TEST(FusionFission, ImprovesOverPercolation) {
  const auto g = test_graph();
  const auto base = percolation_partition(g, 6, {});
  const double base_value =
      objective(ObjectiveKind::MinMaxCut).evaluate(base);
  FusionFissionOptions opt;
  opt.seed = 9;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(12000));
  EXPECT_LT(res.best_value, base_value);
}

TEST(FusionFission, TracksBestByPartCount) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 11;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(6000));
  EXPECT_FALSE(res.best_by_part_count.empty());
  // The target count must have been visited, and typically neighbors too
  // (the paper: good solutions from k−5 to k+6).
  EXPECT_TRUE(res.best_by_part_count.count(6) == 1);
  EXPECT_GE(res.best_by_part_count.size(), 2u);
}

TEST(FusionFission, CountsFusionsAndFissions) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 13;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(4000));
  EXPECT_GT(res.fusions, 0);
  EXPECT_GT(res.fissions, 0);
  EXPECT_GT(res.steps, 0);
}

TEST(FusionFission, ReheatsWhenFrozen) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 15;
  opt.nbt = 50;  // freeze quickly
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(2000));
  EXPECT_GT(res.reheats, 0);
}

TEST(FusionFission, DeterministicForSeed) {
  // Same seed, same bytes, on every generator family.
  const std::pair<const char*, Graph> families[] = {
      {"grid", make_grid2d(24, 24)},
      {"torus", make_torus(20, 20)},
      {"geometric", make_random_geometric(512, 0.11, 5)},
      {"powerlaw", make_power_law(512, 6.0, 2.5, 5)}};
  for (const auto& [name, g] : families) {
    SCOPED_TRACE(name);
    FusionFissionOptions opt;
    opt.seed = 17;
    FusionFission a(g, 8, opt), b(g, 8, opt);
    const auto ra = a.run(StopCondition::after_steps(3000));
    const auto rb = b.run(StopCondition::after_steps(3000));
    ffp::testing::expect_valid_partition(ra.best, 8);
    EXPECT_TRUE(std::ranges::equal(ra.best.assignment(),
                                   rb.best.assignment()));
    EXPECT_EQ(ra.best_value, rb.best_value);  // bitwise, not NEAR
    EXPECT_EQ(ra.fusions, rb.fusions);
    EXPECT_EQ(ra.fissions, rb.fissions);
    EXPECT_EQ(ra.ejections, rb.ejections);
    EXPECT_EQ(ra.reheats, rb.reheats);
  }
}

TEST(FusionFission, RunBytesArePinned) {
  // Golden digests recorded once. DeterministicForSeed compares two runs of
  // one build, so it cannot see a changed tie rule or candidate order in
  // the ejection, absorption and partner-pick operators; these can. Cut
  // takes the tracker's Cut fast path, the other criteria its term path.
  const std::pair<const char*, Graph> graphs[] = {
      {"grid", make_grid2d(24, 24)},
      {"geometric_w",
       with_random_weights(make_random_geometric(400, 0.09, 5), 1.0, 10.0, 6)},
      {"zero_weight", zero_weight_grid()}};
  const ObjectiveKind kinds[] = {ObjectiveKind::Cut,
                                 ObjectiveKind::NormalizedCut,
                                 ObjectiveKind::MinMaxCut,
                                 ObjectiveKind::RatioCut};
  const std::uint64_t expected[3][4] = {
      {0x199796f12436e611ull, 0x085cc2e20f6cfe6aull,
       0xe2e8952294ec325full, 0xb03225303cb8f574ull},
      {0x4ea56c90618ab7eeull, 0x8f07625e0b3dd5d3ull,
       0x7fd98204b8a4597dull, 0x5486cd4587edd844ull},
      {0xfc4ffeca26d21d4bull, 0x5e79115dfc077c2eull,
       0xf0d6a9bde86e7369ull, 0x8e1cfe46497e111dull}};
  for (std::size_t gi = 0; gi < 3; ++gi) {
    for (std::size_t ki = 0; ki < 4; ++ki) {
      FusionFissionOptions opt;
      opt.objective = kinds[ki];
      opt.seed = 31;
      FusionFission ff(graphs[gi].second, 8, opt);
      const auto res = ff.run(StopCondition::after_steps(3000));
      EXPECT_EQ(run_digest(res), expected[gi][ki])
          << graphs[gi].first << " " << objective_name(kinds[ki]);
    }
  }
}

TEST(FusionFission, AuxTermRunBytesArePinned) {
  // choice_term_bias > 0 keeps the leak-ratio sum as the tracker's aux
  // term, which every move, merge and split updates.
  const auto g =
      with_random_weights(make_random_geometric(400, 0.09, 5), 1.0, 10.0, 6);
  FusionFissionOptions opt;
  opt.choice_term_bias = 0.5;
  opt.seed = 33;
  FusionFission ff(g, 8, opt);
  const auto res = ff.run(StopCondition::after_steps(3000));
  EXPECT_EQ(res.fusions, 1881);
  EXPECT_EQ(res.fissions, 1119);
  EXPECT_EQ(res.ejections, 4519);
  EXPECT_EQ(run_digest(res), 0x4f768df6f01d915dull);
}

TEST(FusionFission, LawsOffAblationStillWorks) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.use_laws = false;
  opt.seed = 19;
  FusionFission ff(g, 6, opt);
  const auto res = ff.run(StopCondition::after_steps(3000));
  ffp::testing::expect_valid_partition(res.best, 6);
  EXPECT_EQ(res.ejections, 0);  // no laws → no ejections
}

TEST(FusionFission, ScalingAblationsWork) {
  const auto g = test_graph();
  for (auto scaling : {ScalingKind::BindingEnergy, ScalingKind::Linear,
                       ScalingKind::Identity}) {
    FusionFissionOptions opt;
    opt.scaling = scaling;
    opt.seed = 21;
    FusionFission ff(g, 5, opt);
    const auto res = ff.run(StopCondition::after_steps(2000));
    ffp::testing::expect_valid_partition(res.best, 5);
  }
}

TEST(FusionFission, RandomFissionAblation) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.percolation_fission = false;
  opt.seed = 23;
  FusionFission ff(g, 5, opt);
  const auto res = ff.run(StopCondition::after_steps(2000));
  ffp::testing::expect_valid_partition(res.best, 5);
}

TEST(FusionFission, WorksPerObjective) {
  const auto g = test_graph();
  for (auto kind : {ObjectiveKind::Cut, ObjectiveKind::NormalizedCut,
                    ObjectiveKind::MinMaxCut}) {
    FusionFissionOptions opt;
    opt.objective = kind;
    opt.seed = 25;
    FusionFission ff(g, 5, opt);
    const auto res = ff.run(StopCondition::after_steps(2500));
    ffp::testing::expect_valid_partition(res.best, 5);
    EXPECT_TRUE(std::isfinite(res.best_value)) << objective_name(kind);
  }
}

TEST(FusionFission, RecorderTracksTargetKImprovements) {
  const auto g = test_graph();
  FusionFissionOptions opt;
  opt.seed = 27;
  FusionFission ff(g, 6, opt);
  AnytimeRecorder rec;
  const auto res = ff.run(StopCondition::after_steps(8000), &rec);
  ASSERT_GE(rec.points().size(), 1u);
  for (std::size_t i = 1; i < rec.points().size(); ++i) {
    EXPECT_LE(rec.points()[i].best_value, rec.points()[i - 1].best_value);
  }
  EXPECT_NEAR(rec.points().back().best_value, res.best_value, 1e-9);
}

TEST(FusionFission, SmallGraphEdgeCases) {
  const auto g = make_path(6);
  FusionFissionOptions opt;
  opt.seed = 29;
  FusionFission ff(g, 2, opt);
  const auto res = ff.run(StopCondition::after_steps(800));
  ffp::testing::expect_valid_partition(res.best, 2);
}

TEST(FusionFission, RejectsBadConfiguration) {
  const auto g = make_path(8);
  FusionFissionOptions opt;
  EXPECT_THROW(FusionFission(g, 1, opt), Error);
  EXPECT_THROW(FusionFission(g, 9, opt), Error);
  opt.tmin = opt.tmax;
  EXPECT_THROW(FusionFission(g, 2, opt), Error);
  opt = {};
  opt.nbt = 0;
  EXPECT_THROW(FusionFission(g, 2, opt), Error);
}

}  // namespace
}  // namespace ffp
