#include "refine/kway_fm.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "partition/objective_tracker.hpp"

namespace ffp {

KwayFmResult kway_fm_refine(Partition& p, const ObjectiveFn& objective,
                            const KwayFmOptions& options, Rng& rng) {
  // The tracker owns the partition for the duration of the refinement and
  // maintains the running objective across moves; the built-in criteria
  // update in O(deg) per move, so initial/final values cost nothing extra.
  // The caller's partition is handed back even if the objective throws —
  // `p` must never be left moved-from: evaluate once while p is still
  // intact (a throwing custom objective fails here, before the move), so
  // the tracker's own resync on the identical state cannot throw, and the
  // guard below covers everything after.
  KwayFmResult result;
  result.initial_objective = objective.evaluate(p);
  ObjectiveTracker tracker(std::move(p), objective);
  struct ReturnPartition {
    Partition& p;
    ObjectiveTracker& tracker;
    ~ReturnPartition() { p = std::move(tracker).take(); }
  } return_partition{p, tracker};
  const Graph& g = tracker.partition().graph();

  const int k = std::max(1, tracker.partition().num_nonempty_parts());
  const double cap =
      g.total_vertex_weight() / k * options.max_imbalance;

  std::vector<VertexId> order(static_cast<std::size_t>(g.num_vertices()));
  std::iota(order.begin(), order.end(), 0);

  PartMarkScratch adjacent;  // scratch: adjacent parts of a vertex
  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++result.passes;
    rng.shuffle(order);
    double pass_gain = 0.0;
    for (VertexId v : order) {
      const Partition& cur = tracker.partition();
      const int from = cur.part_of(v);
      if (cur.part_size(from) <= 1) continue;  // never empty a part

      // Candidate targets: parts adjacent to v, all priced from one scan.
      const Weight own = cur.neighbor_parts(v, adjacent);
      ObjectiveTracker::TrialMove best;
      best.delta = -1e-13;  // strict improvement only
      for (int t : adjacent.marked()) {
        if (options.enforce_balance &&
            cur.part_vertex_weight(t) + g.vertex_weight(v) > cap) {
          continue;
        }
        const auto trial = tracker.trial_move(v, t, {own, adjacent.weight(t)});
        if (trial.delta < best.delta) best = trial;
      }
      if (best.target != -1) {
        tracker.move(best);
        pass_gain -= best.delta;  // delta is negative
        ++result.moves;
      }
    }
    if (pass_gain <= options.min_gain_per_pass) break;
  }

  result.final_objective = tracker.value();
  return result;
}

}  // namespace ffp
