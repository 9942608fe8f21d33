#include "refine/kway_fm.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/balance.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

Partition random_partition(const Graph& g, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> assign(static_cast<std::size_t>(g.num_vertices()));
  for (auto& a : assign) a = static_cast<int>(rng.below(k));
  return Partition::from_assignment(g, assign, k);
}

TEST(KwayFm, ImprovesCutOnGrid) {
  const auto g = make_grid2d(10, 10);
  auto p = random_partition(g, 5, 3);
  Rng rng(4);
  const auto res = kway_fm_refine(p, objective(ObjectiveKind::Cut), {}, rng);
  EXPECT_LT(res.final_objective, res.initial_objective);
  ffp::testing::expect_valid_partition(p);
}

TEST(KwayFm, NeverWorsensAnyObjective) {
  for (auto kind : {ObjectiveKind::Cut, ObjectiveKind::NormalizedCut,
                    ObjectiveKind::MinMaxCut}) {
    const auto g = make_torus(8, 8);
    auto p = random_partition(g, 4, 7);
    Rng rng(8);
    KwayFmOptions opt;
    opt.enforce_balance = false;
    const auto res = kway_fm_refine(p, objective(kind), opt, rng);
    EXPECT_LE(res.final_objective, res.initial_objective + 1e-9)
        << objective_name(kind);
  }
}

TEST(KwayFm, RespectsBalanceWhenAsked) {
  const auto g = make_grid2d(9, 9);
  auto p = random_partition(g, 3, 11);
  Rng rng(12);
  KwayFmOptions opt;
  opt.max_imbalance = 1.15;
  opt.enforce_balance = true;
  kway_fm_refine(p, objective(ObjectiveKind::Cut), opt, rng);
  EXPECT_LE(imbalance(p, 3), 1.20);
}

TEST(KwayFm, NeverEmptiesAPart) {
  const auto g = make_complete(12);
  auto p = random_partition(g, 4, 13);
  Rng rng(14);
  KwayFmOptions opt;
  opt.enforce_balance = false;
  opt.max_passes = 30;
  kway_fm_refine(p, objective(ObjectiveKind::Cut), opt, rng);
  EXPECT_EQ(p.num_nonempty_parts(), 4);
}

TEST(KwayFm, StableOnOptimalPartition) {
  const auto g = make_path(12);
  auto p = Partition::from_assignment(
      g, std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2});
  Rng rng(15);
  const auto res = kway_fm_refine(p, objective(ObjectiveKind::Cut), {}, rng);
  EXPECT_DOUBLE_EQ(res.final_objective, res.initial_objective);
  EXPECT_EQ(res.moves, 0);
}

TEST(KwayFm, McutObjectiveDrivesRatioImprovement) {
  const auto g = with_random_weights(make_grid2d(8, 8), 1.0, 6.0, 16);
  auto p = random_partition(g, 4, 17);
  Rng rng(18);
  KwayFmOptions opt;
  opt.enforce_balance = false;
  opt.max_passes = 20;
  const auto res =
      kway_fm_refine(p, objective(ObjectiveKind::MinMaxCut), opt, rng);
  EXPECT_LT(res.final_objective, res.initial_objective);
}

TEST(KwayFm, RefineBytesArePinned) {
  // Golden digests recorded once: the refined assignment, the bits of the
  // final value, and the move and pass counts, with the balance cap on.
  // On the unit grid many candidates tie, so the order candidates are
  // priced in decides the move; on the weighted grid the deltas are real.
  // CustomCut takes the ObjectiveFn::move_delta path.
  const auto unit = make_grid2d(16, 16);
  const auto weighted = with_random_weights(make_grid2d(16, 16), 1.0, 9.0, 41);
  const ffp::testing::CustomCut custom;
  struct Case {
    const char* name;
    const Graph* g;
    const ObjectiveFn* fn;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"unit Cut", &unit, &objective(ObjectiveKind::Cut),
       0x76aeb192485112bfull},
      {"unit Mcut", &unit, &objective(ObjectiveKind::MinMaxCut),
       0x07f59eaf4ebbbe65ull},
      {"unit CustomCut", &unit, &custom, 0x76aeb192485112bfull},
      {"weighted Cut", &weighted, &objective(ObjectiveKind::Cut),
       0x60ab5b7be94c8443ull},
      {"weighted Mcut", &weighted, &objective(ObjectiveKind::MinMaxCut),
       0x149aed64248f72c8ull},
      {"weighted CustomCut", &weighted, &custom, 0x4dc73d42438c6579ull}};
  for (const auto& c : cases) {
    auto p = random_partition(*c.g, 6, 43);
    Rng rng(44);
    KwayFmOptions opt;
    opt.max_imbalance = 1.2;
    const auto res = kway_fm_refine(p, *c.fn, opt, rng);
    using ffp::testing::bits;
    EXPECT_EQ(ffp::testing::partition_digest(
                  p, {bits(res.final_objective),
                      static_cast<std::uint64_t>(res.moves),
                      static_cast<std::uint64_t>(res.passes)}),
              c.expected)
        << c.name;
  }
}

TEST(KwayFm, ReportsMoveCount) {
  const auto g = make_grid2d(8, 8);
  auto p = random_partition(g, 4, 19);
  Rng rng(20);
  const auto res = kway_fm_refine(p, objective(ObjectiveKind::Cut), {}, rng);
  EXPECT_GT(res.moves, 0);
  EXPECT_GT(res.passes, 0);
}

}  // namespace
}  // namespace ffp
