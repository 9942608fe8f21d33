// Anytime trajectory recording: every metaheuristic reports its best
// objective value over wall-clock time so the Figure-1 bench can print the
// same curves the paper plots. RunHooks, next to it, are the other per-run
// inputs of an anytime search: where it starts, what caps its result, and
// where its best-so-far is checkpointed.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "util/timer.hpp"

namespace ffp {

class AnytimeRecorder {
 public:
  struct Point {
    double seconds;
    double best_value;
  };

  virtual ~AnytimeRecorder() = default;

  // start() and record() are virtual so harnesses can interpose: the
  // portfolio runner shares one recorder between concurrent restarts by
  // overriding them with a locked, monotone merge (solver/portfolio.cpp).
  virtual void start() {
    timer_.reset();
    points_.clear();
  }

  /// Record an improvement (callers pass the new best value).
  virtual void record(double best_value) {
    points_.push_back({timer_.elapsed_seconds(), best_value});
  }

  const std::vector<Point>& points() const { return points_; }

  /// Best value achieved at or before `seconds` (NaN if none yet).
  double value_at(double seconds) const {
    double best = std::numeric_limits<double>::quiet_NaN();
    for (const auto& pt : points_) {
      if (pt.seconds <= seconds) best = pt.best_value;
      else break;
    }
    return best;
  }

 private:
  WallTimer timer_;
  std::vector<Point> points_;
};

/// Durable-solve and memetic hooks for one run (persist/, evolve/).
/// Fusion-fission is anytime by construction: Algorithm 1 runs on ANY
/// molecule, so a resume or an evolved restart only replaces Algorithm 2's
/// initialization, and checkpointing is one more observer. The
/// fusion-fission and mlff kernels take these per run beside the stop
/// condition and recorder; the other solvers ignore them. Every field
/// defaults off and costs nothing when off.
struct RunHooks {
  /// Skip Algorithm 2 and start from this assignment (one part id per
  /// vertex; must cover every vertex). When it has exactly k parts it also
  /// seeds best-at-k, so the run never reports worse than the partition it
  /// resumed from.
  std::shared_ptr<const std::vector<int>> warm_start;
  /// The objective value the writing run recorded for `warm_start`.
  /// Re-evaluating the restored partition can land an ulp away (different
  /// summation order); the lower rendering is adopted, which keeps resume
  /// monotonicity exact. Infinity means unknown: trust the re-evaluation.
  double warm_start_value = std::numeric_limits<double>::infinity();
  /// Memetic incumbent (evolve crossover's better parent): a k-part
  /// assignment that CAPS the result, which is never worse than
  /// min(incumbent_value, its evaluation). It does not replace the
  /// starting molecule. Fusion-fission seeds best-at-k from it in-search;
  /// mlff applies it post hoc. Ignored unless it has exactly k parts.
  std::shared_ptr<const std::vector<int>> incumbent;
  double incumbent_value = std::numeric_limits<double>::infinity();
  /// With checkpoint_sink set and checkpoint_every_ms > 0, the best-at-k
  /// partition (compacted assignment + objective value) is pushed through
  /// the sink at most once per interval, and once more at the end of the
  /// run, but only when it improved since the last push. The sink runs on
  /// the solve thread; persist::save_checkpoint is the intended body.
  std::int64_t checkpoint_every_ms = 0;
  std::function<void(const std::vector<int>& assignment, double value)>
      checkpoint_sink;
};

}  // namespace ffp
