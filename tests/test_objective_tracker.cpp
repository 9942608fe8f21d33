// Drift property suite for ObjectiveTracker: the running value must track a
// from-scratch evaluate() through long adversarial move sequences —
// including part-emptying moves, make_part events, and the bulk
// merge_parts/split_part operations the fusion-fission hot loop uses — and
// the incremental move_delta must agree with the trial_move_delta oracle.
#include "partition/objective_tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "partition/objectives.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ffp {
namespace {

constexpr ObjectiveKind kAllKinds[] = {
    ObjectiveKind::Cut, ObjectiveKind::NormalizedCut, ObjectiveKind::MinMaxCut,
    ObjectiveKind::RatioCut};

void expect_tracks(const ObjectiveTracker& t, const char* context) {
  const double fresh = t.objective_fn().evaluate(t.partition());
  const double tol = 1e-7 * std::max(1.0, std::abs(fresh));
  EXPECT_NEAR(t.value(), fresh, tol)
      << context << " with " << t.objective_fn().name();
}

TEST(ObjectiveTracker, TracksTenThousandRandomMoves) {
  // Random single-vertex moves across a weighted graph, regularly emptying
  // parts (small part count) and growing new ones via make_part.
  const auto g = with_random_weights(make_grid2d(9, 9), 0.5, 9.5, 3);
  for (const auto kind : kAllKinds) {
    Rng rng(101);
    ObjectiveTracker t(Partition(g, 4), kind);
    for (int step = 0; step < 10000; ++step) {
      const auto v = static_cast<VertexId>(
          rng.below(static_cast<std::uint64_t>(g.num_vertices())));
      int target = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(t.partition().num_parts())));
      if (rng.below(200) == 0) target = t.make_part();
      t.move(v, target);
      if (step % 500 == 0) expect_tracks(t, "mid-run");
    }
    expect_tracks(t, "after 10k moves");
    ASSERT_NO_THROW(t.validate());
  }
}

TEST(ObjectiveTracker, TracksSingletonHeavySequences) {
  // From all-singletons down to a few parts and back up — the Mcut/RatioCut
  // penalty regime where the running sum transits huge magnitudes.
  const auto g = with_random_weights(make_random_geometric(60, 0.25, 9),
                                     1.0, 7.0, 11);
  for (const auto kind : kAllKinds) {
    Rng rng(77);
    ObjectiveTracker t(Partition::singletons(g), kind);
    for (int step = 0; step < 10000; ++step) {
      const auto v = static_cast<VertexId>(
          rng.below(static_cast<std::uint64_t>(g.num_vertices())));
      const int target = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(t.partition().num_parts())));
      t.move(v, target);
      if (step % 1000 == 0) expect_tracks(t, "singleton-heavy");
    }
    expect_tracks(t, "singleton-heavy end");
    ASSERT_NO_THROW(t.validate());
  }
}

TEST(ObjectiveTracker, TracksBulkMergeAndSplit) {
  const auto g = with_random_weights(make_torus(8, 8), 1.0, 5.0, 5);
  for (const auto kind : kAllKinds) {
    Rng rng(13);
    ObjectiveTracker t(Partition(g, 8), kind);
    // Scatter first so parts are non-trivial.
    for (int i = 0; i < 500; ++i) {
      const auto v = static_cast<VertexId>(
          rng.below(static_cast<std::uint64_t>(g.num_vertices())));
      t.move(v, static_cast<int>(rng.below(8)));
    }
    PartMarkScratch conns;
    std::vector<VertexId> moved;
    for (int round = 0; round < 300; ++round) {
      const auto& p = t.partition();
      const auto parts = p.nonempty_parts();
      const int atom = parts[rng.below(parts.size())];
      if (rng.below(2) == 0 && parts.size() >= 2) {
        // Merge with a connected neighbor part (or skip if isolated).
        p.connections(atom, conns);
        const auto partners = conns.marked();
        if (partners.empty()) continue;
        const int partner = partners[rng.below(partners.size())];
        t.merge_parts(atom, partner, conns.weight(partner));
      } else if (p.part_size(atom) >= 2) {
        // Split off a random non-empty proper subset.
        const auto members = p.members(atom);
        moved.clear();
        for (VertexId v : members) {
          if (rng.below(2) == 0) moved.push_back(v);
        }
        if (moved.empty() || moved.size() == members.size()) continue;
        int fresh = -1;
        for (int q = 0; q < p.num_parts(); ++q) {
          if (p.part_size(q) == 0) {
            fresh = q;
            break;
          }
        }
        if (fresh == -1) fresh = t.make_part();
        t.split_part(atom, fresh, moved);
      }
      if (round % 50 == 0) expect_tracks(t, "bulk ops");
    }
    expect_tracks(t, "bulk ops end");
    ASSERT_NO_THROW(t.validate());
  }
}

TEST(ObjectiveTracker, MoveDeltaMatchesTrialMoveOracle) {
  const auto g = with_random_weights(make_grid2d(7, 6), 0.5, 4.5, 21);
  for (const auto kind : kAllKinds) {
    Rng rng(55);
    ObjectiveTracker t(Partition(g, 5), kind);
    // Mix the partition up, then compare deltas against the
    // move-evaluate-move-back oracle at every state.
    Partition scratch = t.partition();
    for (int step = 0; step < 2000; ++step) {
      const auto v = static_cast<VertexId>(
          rng.below(static_cast<std::uint64_t>(g.num_vertices())));
      const int target = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(t.partition().num_parts())));
      const double delta = t.trial_move(v, target).delta;
      scratch = t.partition();
      const double oracle =
          trial_move_delta(scratch, v, target, t.objective_fn());
      EXPECT_NEAR(delta, oracle, 1e-7 * std::max(1.0, std::abs(oracle)))
          << objective_name(kind) << " at step " << step;
      t.move(v, target);
    }
  }
}

TEST(ObjectiveTracker, TrialMoveFastPathMatchesMoveExactly) {
  // The single-scan path: a trial priced from a neighbor_parts profile must
  // carry a delta bitwise equal to ObjectiveFn::move_delta, and applying it
  // must leave the tracker in the bitwise-identical state plain move()
  // would have produced — refiners and annealing may not shift by an ulp.
  const auto g = with_random_weights(make_grid2d(8, 7), 0.5, 7.5, 13);
  PartMarkScratch adjacent;
  for (const auto kind : kAllKinds) {
    Rng rng(77);
    ObjectiveTracker fast(Partition(g, 5), kind);
    ObjectiveTracker slow(Partition(g, 5), kind);
    for (int step = 0; step < 4000; ++step) {
      const auto v = static_cast<VertexId>(
          rng.below(static_cast<std::uint64_t>(g.num_vertices())));
      const int target = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(fast.partition().num_parts())));
      const Weight own = fast.partition().neighbor_parts(v, adjacent);
      const bool adjacent_target =
          std::ranges::find(adjacent.marked(), target) !=
          adjacent.marked().end();
      const auto trial = fast.trial_move(
          v, target, {own, adjacent_target ? adjacent.weight(target) : 0.0});
      ASSERT_EQ(trial.delta,
                slow.objective_fn().move_delta(slow.partition(), v, target))
          << objective_name(kind) << " at step " << step;
      if (step % 3 != 0) {  // mix accepted and "rejected" moves
        fast.move(trial);
        slow.move(v, target);
        ASSERT_EQ(fast.value(), slow.value())
            << objective_name(kind) << " at step " << step;
      }
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(fast.partition().part_of(v), slow.partition().part_of(v));
    }
    ASSERT_NO_THROW(fast.validate());
  }
}

TEST(ObjectiveTracker, TrialMoveToOwnPartIsNoop) {
  const auto g = make_grid2d(4, 4);
  ObjectiveTracker t(Partition(g, 2), ObjectiveKind::Cut);
  const int own = t.partition().part_of(3);
  const auto trial = t.trial_move(3, own);
  EXPECT_EQ(trial.delta, 0.0);
  const double before = t.value();
  t.move(trial);
  EXPECT_EQ(t.value(), before);
}

TEST(ObjectiveTracker, AuxTermSumTracksRecompute) {
  const auto g = with_random_weights(make_grid2d(6, 6), 1.0, 3.0, 7);
  const auto leak = +[](const Partition& p, int q) {
    const double internal = p.part_internal(q);
    if (internal <= 0.0) return p.part_cut(q) > 0.0 ? 1e6 : 0.0;
    return p.part_cut(q) / internal;
  };
  Rng rng(3);
  ObjectiveTracker t(Partition(g, 4), ObjectiveKind::MinMaxCut);
  t.track_aux(leak);
  for (int step = 0; step < 3000; ++step) {
    const auto v = static_cast<VertexId>(
        rng.below(static_cast<std::uint64_t>(g.num_vertices())));
    t.move(v, static_cast<int>(rng.below(4)));
    if (step % 250 == 0) {
      double fresh = 0.0;
      for (int q : t.partition().nonempty_parts()) {
        fresh += leak(t.partition(), q);
      }
      EXPECT_NEAR(t.aux_sum(), fresh, 1e-7 * std::max(1.0, std::abs(fresh)));
    }
  }
  ASSERT_NO_THROW(t.validate());
}

TEST(ObjectiveTracker, CustomObjectiveFallbackTracks) {
  // The custom objective exercises the move_delta accumulation fallback.
  const auto g = with_random_weights(make_cycle(40), 1.0, 2.0, 17);
  const ffp::testing::CustomCut fn;
  Rng rng(29);
  ObjectiveTracker t(Partition(g, 4), fn);
  for (int step = 0; step < 5000; ++step) {
    const auto v = static_cast<VertexId>(
        rng.below(static_cast<std::uint64_t>(g.num_vertices())));
    t.move(v, static_cast<int>(rng.below(4)));
  }
  expect_tracks(t, "custom fallback");
}

TEST(ObjectiveTracker, ResetAdoptsPartitionAndKnownValue) {
  const auto g = make_grid2d(5, 5);
  ObjectiveTracker t(Partition(g, 3), ObjectiveKind::NormalizedCut);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    t.move(static_cast<VertexId>(rng.below(25)),
           static_cast<int>(rng.below(3)));
  }
  const Partition snapshot = t.partition();
  const double snapshot_value = t.value();
  for (int i = 0; i < 100; ++i) {
    t.move(static_cast<VertexId>(rng.below(25)),
           static_cast<int>(rng.below(3)));
  }
  t.reset(snapshot, snapshot_value);
  expect_tracks(t, "reset with known value");
  t.reset(Partition(g, 3));
  expect_tracks(t, "reset with revalue");
}

TEST(ObjectiveTracker, TakeReturnsTrackedPartition) {
  const auto g = make_grid2d(4, 4);
  ObjectiveTracker t(Partition(g, 2), ObjectiveKind::Cut);
  t.move(0, 1);
  const double value = t.value();
  Partition p = std::move(t).take();
  EXPECT_NEAR(objective(ObjectiveKind::Cut).evaluate(p), value, 1e-9);
  ffp::testing::expect_valid_partition(p);
}

}  // namespace
}  // namespace ffp
