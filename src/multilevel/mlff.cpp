#include "multilevel/mlff.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "partition/objective_tracker.hpp"
#include "util/check.hpp"

namespace ffp {

namespace {

/// Boundary-localized refinement burst: strictly improving single-vertex
/// moves only, seeded from the current cut boundary and re-queueing the
/// neighborhood of every applied move. One "attempt" examines one queued
/// vertex with a single O(deg) neighbor scan (Partition::neighbor_parts);
/// all candidate targets are then priced O(1) each from it and the best
/// trial applies without a rescan. Moves that would empty a part are
/// skipped, so exactly k parts survive the burst.
struct BurstStats {
  std::int64_t attempts = 0;
  std::int64_t moves = 0;
};

BurstStats boundary_refine(const Graph& g, ObjectiveTracker& tracker,
                           std::int64_t budget, std::uint64_t seed) {
  BurstStats stats;
  if (budget <= 0) return stats;
  const Partition& cur = tracker.partition();
  const auto n = static_cast<std::size_t>(g.num_vertices());

  std::vector<VertexId> queue;
  std::vector<char> queued(n, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const int part = cur.part_of(v);
    for (VertexId u : g.neighbors(v)) {
      if (cur.part_of(u) != part) {
        queue.push_back(v);
        queued[static_cast<std::size_t>(v)] = 1;
        break;
      }
    }
  }
  // Deterministic visit order, independent of how the boundary was listed.
  Rng rng(seed);
  rng.shuffle(queue);

  PartMarkScratch adjacent;
  std::size_t head = 0;
  while (head < queue.size() && stats.attempts < budget) {
    const VertexId v = queue[head++];
    queued[static_cast<std::size_t>(v)] = 0;
    ++stats.attempts;

    const int from = cur.part_of(v);
    if (cur.part_size(from) <= 1) continue;  // never empty a part

    const Weight internal = cur.neighbor_parts(v, adjacent);
    // Strictly improving with a small margin: the running value decreases
    // monotonically, so the burst can never cycle however vertices requeue.
    ObjectiveTracker::TrialMove best;
    best.delta = -1e-9;
    for (int q : adjacent.marked()) {
      const auto trial =
          tracker.trial_move(v, q, {internal, adjacent.weight(q)});
      if (trial.delta < best.delta) best = trial;
    }
    if (best.target == -1) continue;

    tracker.move(best);
    ++stats.moves;
    for (VertexId u : g.neighbors(v)) {
      if (!queued[static_cast<std::size_t>(u)]) {
        queued[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
  }
  return stats;
}

}  // namespace

MlffResult mlff_partition(const Graph& g, int k, const MlffOptions& options,
                          const StopCondition& stop,
                          AnytimeRecorder* recorder, const RunHooks& hooks) {
  FFP_CHECK(k >= 2, "mlff needs k >= 2");
  FFP_CHECK(g.num_vertices() >= k, "graph has fewer vertices than parts");
  FFP_CHECK(options.coarse_n >= 0, "coarse_n must be >= 0");
  FFP_CHECK(options.refine_steps >= 0, "refine_steps must be >= 0");
  if (recorder != nullptr) recorder->start();

  // Derived sub-seeds: each stage owns one draw of the stream, so no stage's
  // consumption can shift another's and restarts stay independent.
  std::uint64_t stream = options.seed ^ 0x6d1cff00d5eedULL;
  const std::uint64_t coarsen_seed = splitmix64(stream);
  const std::uint64_t ff_seed = splitmix64(stream);

  // 1. Coarsen. min_vertices >= 2k guarantees the coarsest graph (which a
  // pairwise matching can at most halve past the threshold) still holds k
  // atoms.
  const std::int64_t derived =
      std::max<std::int64_t>(static_cast<std::int64_t>(k) * 64,
                             static_cast<std::int64_t>(g.num_vertices()) / 64);
  std::int64_t target = options.coarse_n > 0 ? options.coarse_n : derived;
  target = std::max<std::int64_t>(target, 2LL * k);
  CoarsenOptions copt;
  copt.min_vertices = static_cast<int>(
      std::min<std::int64_t>(target, g.num_vertices()));
  copt.matching = options.matching;
  copt.seed = coarsen_seed;
  const std::vector<CoarseLevel> chain = coarsen_chain(g, copt);
  const Graph& coarse = chain.empty() ? g : chain.back().coarse;

  // Projects a coarsest-level assignment up the whole chain to an
  // input-graph assignment (no refinement — checkpoints trade polish for
  // immediacy; the refined version lands with the final emit).
  const auto project_to_fine = [&chain](const std::vector<int>& at_coarse) {
    return project_partition(chain, chain.size(), at_coarse);
  };

  // Warm start: project the restored input-graph assignment DOWN the
  // chain — each coarse vertex takes the part of its first (lowest-id)
  // fine constituent, which is deterministic and cheap. Parts can merge
  // away in the descent; the final keep-better guard below is what makes
  // the monotonicity contract hold regardless.
  double warm_value = std::numeric_limits<double>::infinity();
  RunHooks coarse_hooks;
  if (hooks.warm_start != nullptr) {
    FFP_CHECK(static_cast<VertexId>(hooks.warm_start->size()) ==
                  g.num_vertices(),
              "warm_start assignment covers ", hooks.warm_start->size(),
              " vertices, graph has ", g.num_vertices());
    // min of the re-evaluation and the checkpoint's stored rendering of
    // the same value — summation order can differ by an ulp, and the
    // monotonicity contract is against what the checkpoint reported.
    warm_value = std::min(
        objective(options.objective)
            .evaluate(Partition::from_assignment(g, *hooks.warm_start)),
        hooks.warm_start_value);
    std::vector<int> cur = *hooks.warm_start;
    for (const CoarseLevel& level : chain) {
      const auto& map = level.fine_to_coarse;
      std::vector<int> down(
          static_cast<std::size_t>(level.coarse.num_vertices()), -1);
      for (std::size_t v = 0; v < map.size(); ++v) {
        auto& slot = down[static_cast<std::size_t>(map[v])];
        if (slot == -1) slot = cur[v];
      }
      cur = std::move(down);
    }
    coarse_hooks.warm_start =
        std::make_shared<const std::vector<int>>(std::move(cur));
  }

  // Checkpoint plumbing: wrap the caller's sink so it always receives
  // input-graph assignments with input-graph objective values, and only
  // improvements over what it has already seen (a projected coarse best
  // is not guaranteed to improve at the fine level even when the coarse
  // value does).
  double emitted_best = warm_value;
  const bool checkpointing =
      hooks.checkpoint_sink != nullptr && hooks.checkpoint_every_ms > 0;
  if (checkpointing) {
    coarse_hooks.checkpoint_every_ms = hooks.checkpoint_every_ms;
    coarse_hooks.checkpoint_sink = [&](const std::vector<int>& at_coarse,
                                       double) {
      const std::vector<int> fine = project_to_fine(at_coarse);
      const double fine_value =
          objective(options.objective)
              .evaluate(Partition::from_assignment(g, fine, k));
      if (fine_value >= emitted_best) return;
      emitted_best = fine_value;
      hooks.checkpoint_sink(fine, fine_value);
    };
  }

  // 2. Full fusion-fission on the coarsest graph, under the caller's stop.
  FusionFissionOptions ffopt;
  ffopt.objective = options.objective;
  ffopt.seed = ff_seed;
  FusionFission ff(coarse, k, ffopt);
  FusionFissionResult coarse_res = ff.run(stop, nullptr, coarse_hooks);

  MlffResult out{Partition(g, 1), 0.0};
  out.levels = static_cast<int>(chain.size());
  out.coarse_vertices = coarse.num_vertices();
  out.coarse_value = coarse_res.best_value;
  out.coarse_steps = coarse_res.steps;
  out.fusions = coarse_res.fusions;
  out.fissions = coarse_res.fissions;
  out.reheats = coarse_res.reheats;

  // 3. Project level by level; after each projection run the boundary
  // burst on that level's graph, with the budget halving toward the fine
  // levels (coarse moves are cheap and shape everything below them).
  std::vector<int> parts(coarse_res.best.assignment().begin(),
                         coarse_res.best.assignment().end());
  std::int64_t level_budget = options.refine_steps;
  for (std::size_t l = chain.size(); l-- > 0;) {
    const Graph& fine_g = l == 0 ? g : chain[l - 1].coarse;
    parts = project_level(chain[l], parts);

    const std::uint64_t level_seed = splitmix64(stream);
    if (level_budget > 0) {
      ObjectiveTracker tracker(
          Partition::from_assignment(fine_g, parts, k), options.objective);
      const BurstStats burst =
          boundary_refine(fine_g, tracker, level_budget, level_seed);
      out.refine_attempts += burst.attempts;
      out.refine_moves += burst.moves;
      if (burst.moves > 0) {
        const auto refined = std::move(tracker).take();
        parts.assign(refined.assignment().begin(),
                     refined.assignment().end());
      }
    }
    level_budget /= 2;
  }

  out.best = chain.empty() ? std::move(coarse_res.best)
                           : Partition::from_assignment(g, parts, k);
  out.best.compact();
  out.best_value = objective(options.objective).evaluate(out.best);

  // Keep-better guard (the memetic never-worsen rule): a resumed run must
  // not report worse than the partition it restored, even when the
  // down-projection merged parts away and the coarse phase lost ground.
  if (hooks.warm_start != nullptr && warm_value < out.best_value) {
    out.best = Partition::from_assignment(g, *hooks.warm_start);
    out.best.compact();
    out.best_value = warm_value;
  }
  // Final checkpoint: the refined result, so a future resume starts from
  // exactly what this run reported.
  if (checkpointing && out.best_value < emitted_best) {
    const auto span = out.best.assignment();
    hooks.checkpoint_sink(std::vector<int>(span.begin(), span.end()),
                          out.best_value);
  }
  if (recorder != nullptr) recorder->record(out.best_value);

  // Memetic incumbent cap, post hoc and after everything above: when the
  // incumbent still beats the run, report the incumbent.
  if (hooks.incumbent != nullptr &&
      hooks.incumbent->size() == static_cast<std::size_t>(g.num_vertices())) {
    Partition inc = Partition::from_assignment(g, *hooks.incumbent);
    if (inc.num_nonempty_parts() == k) {
      double value = objective(options.objective).evaluate(inc);
      if (hooks.incumbent_value < value) value = hooks.incumbent_value;
      if (value < out.best_value) {
        out.best = std::move(inc);
        out.best_value = value;
      }
    }
  }
  return out;
}

}  // namespace ffp
