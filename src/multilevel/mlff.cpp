#include "multilevel/mlff.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "partition/objective_terms.hpp"
#include "partition/objective_tracker.hpp"
#include "partition/part_scratch.hpp"
#include "util/check.hpp"

namespace ffp {

namespace {

/// Boundary-localized refinement burst: strictly improving single-vertex
/// moves only, seeded from the current cut boundary and re-queueing the
/// neighborhood of every applied move. One "attempt" examines one queued
/// vertex with a single O(deg) neighbor scan; all candidate targets are
/// then scored O(1) each via the shared move identity. Moves that would
/// empty a part are skipped, so exactly k parts survive the burst.
struct BurstStats {
  std::int64_t attempts = 0;
  std::int64_t moves = 0;
};

BurstStats boundary_refine(const Graph& g, ObjectiveTracker& tracker,
                           ObjectiveKind kind, std::int64_t budget,
                           std::uint64_t seed) {
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

    adjacent.begin(cur.num_parts());
    Weight internal = 0.0;
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const int q = cur.part_of(nbrs[i]);
      if (q == from) {
        internal += ws[i];
      } else {
        adjacent.add_weight(q, ws[i]);
      }
    }

    int best = -1;
    // Strictly improving with a small margin: the running value decreases
    // monotonically, so the burst can never cycle however vertices requeue.
    double best_delta = -1e-9;
    for (int q : adjacent.marked()) {
      const double delta = detail::move_delta_from_profile(
          cur, kind, v, q, internal, adjacent.weight(q));
      if (delta < best_delta) {
        best_delta = delta;
        best = q;
      }
    }
    if (best == -1) continue;

    tracker.move(v, best, best_delta);
    ++stats.moves;
    for (VertexId u : nbrs) {
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
                          AnytimeRecorder* recorder) {
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
    std::vector<int> cur = at_coarse;
    for (std::size_t l = chain.size(); l-- > 0;) {
      const auto& map = chain[l].fine_to_coarse;
      std::vector<int> fine(map.size());
      for (std::size_t v = 0; v < map.size(); ++v) {
        fine[v] = cur[static_cast<std::size_t>(map[v])];
      }
      cur = std::move(fine);
    }
    return cur;
  };

  // Warm start: project the restored input-graph assignment DOWN the
  // chain — each coarse vertex takes the part of its first (lowest-id)
  // fine constituent, which is deterministic and cheap. Parts can merge
  // away in the descent; the final keep-better guard below is what makes
  // the monotonicity contract hold regardless.
  double warm_value = std::numeric_limits<double>::infinity();
  std::shared_ptr<const std::vector<int>> coarse_warm;
  if (options.warm_start != nullptr) {
    FFP_CHECK(static_cast<VertexId>(options.warm_start->size()) ==
                  g.num_vertices(),
              "warm_start assignment covers ", options.warm_start->size(),
              " vertices, graph has ", g.num_vertices());
    // min of the re-evaluation and the checkpoint's stored rendering of
    // the same value — summation order can differ by an ulp, and the
    // monotonicity contract is against what the checkpoint reported.
    warm_value = std::min(
        objective(options.objective)
            .evaluate(Partition::from_assignment(g, *options.warm_start)),
        options.warm_start_value);
    std::vector<int> cur = *options.warm_start;
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
    coarse_warm = std::make_shared<const std::vector<int>>(std::move(cur));
  }

  // Checkpoint plumbing: wrap the caller's sink so it always receives
  // input-graph assignments with input-graph objective values, and only
  // improvements over what it has already seen (a projected coarse best
  // is not guaranteed to improve at the fine level even when the coarse
  // value does).
  double emitted_best = warm_value;
  std::function<void(const std::vector<int>&, double)> coarse_sink;
  if (options.checkpoint_sink != nullptr && options.checkpoint_every_ms > 0) {
    coarse_sink = [&](const std::vector<int>& at_coarse, double) {
      const std::vector<int> fine = project_to_fine(at_coarse);
      const double fine_value =
          objective(options.objective)
              .evaluate(Partition::from_assignment(g, fine, k));
      if (fine_value >= emitted_best) return;
      emitted_best = fine_value;
      options.checkpoint_sink(fine, fine_value);
    };
  }

  // 2. Full fusion-fission on the coarsest graph, under the caller's stop.
  FusionFissionOptions ffopt;
  ffopt.objective = options.objective;
  ffopt.seed = ff_seed;
  ffopt.warm_start = coarse_warm;
  ffopt.checkpoint_every_ms = options.checkpoint_every_ms;
  ffopt.checkpoint_sink = coarse_sink;
  FusionFission ff(coarse, k, ffopt);
  FusionFissionResult coarse_res = ff.run(stop, nullptr);

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
    const auto& map = chain[l].fine_to_coarse;
    std::vector<int> fine(map.size());
    for (std::size_t v = 0; v < map.size(); ++v) {
      fine[v] = parts[static_cast<std::size_t>(map[v])];
    }
    parts = std::move(fine);

    const std::uint64_t level_seed = splitmix64(stream);
    if (level_budget > 0) {
      ObjectiveTracker tracker(
          Partition::from_assignment(fine_g, parts, k), options.objective);
      const BurstStats burst = boundary_refine(
          fine_g, tracker, options.objective, level_budget, level_seed);
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
  if (options.warm_start != nullptr && warm_value < out.best_value) {
    out.best = Partition::from_assignment(g, *options.warm_start);
    out.best.compact();
    out.best_value = warm_value;
  }
  // Final checkpoint: the refined result, so a future resume starts from
  // exactly what this run reported.
  if (options.checkpoint_sink != nullptr && options.checkpoint_every_ms > 0 &&
      out.best_value < emitted_best) {
    const auto span = out.best.assignment();
    options.checkpoint_sink(std::vector<int>(span.begin(), span.end()),
                            out.best_value);
  }
  if (recorder != nullptr) recorder->record(out.best_value);
  return out;
}

}  // namespace ffp
