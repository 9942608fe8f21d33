#include "metaheuristics/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "partition/objective_tracker.hpp"
#include "util/check.hpp"

namespace ffp {

SimulatedAnnealing::SimulatedAnnealing(const Graph& g, int k,
                                       AnnealingOptions options)
    : g_(&g), k_(k), options_(options) {
  FFP_CHECK(k >= 2, "k must be >= 2");
  FFP_CHECK(g.num_vertices() >= k, "graph has fewer vertices than parts");
  FFP_CHECK(options.cooling > 0.0 && options.cooling < 1.0,
            "cooling factor must be in (0,1)");
}

AnnealingResult SimulatedAnnealing::run(const Partition& initial,
                                        const StopCondition& stop,
                                        AnytimeRecorder* recorder) {
  FFP_CHECK(&initial.graph() == g_, "initial partition is for another graph");
  Rng rng(options_.seed);

  // The tracker maintains the running objective in O(deg) per accepted
  // move — no hand-rolled sum, no periodic full-evaluate drift guard.
  ObjectiveTracker tracker(initial, options_.objective);

  AnnealingResult result{tracker.partition(), tracker.value(), 0, 0, 0};

  // Auto-calibration: tmax such that the typical uphill move is accepted
  // with ~60% probability at the start (classic rule of thumb). The median
  // of sampled |Δ| is used rather than the mean — zero-denominator penalty
  // terms (Mcut on singleton parts) would otherwise blow the scale up.
  double tmax = options_.tmax;
  if (tmax <= 0.0) {
    std::vector<double> samples;
    samples.reserve(256);
    for (int i = 0; i < 256; ++i) {
      const auto v = static_cast<VertexId>(
          rng.below(static_cast<std::uint64_t>(g_->num_vertices())));
      const int target = static_cast<int>(rng.below(static_cast<std::uint64_t>(k_)));
      if (target == tracker.partition().part_of(v)) continue;
      const double d = std::abs(tracker.trial_move(v, target).delta);
      if (d > 0.0) samples.push_back(d);
    }
    std::sort(samples.begin(), samples.end());
    const double median =
        samples.empty() ? 1.0 : samples[samples.size() / 2];
    tmax = std::max(median, 1e-9) / std::log(1.0 / 0.6);
  }
  const double tmin = tmax * options_.tmin_fraction;
  double temperature = tmax;

  auto part_with_lowest_internal = [&]() {
    int best = -1;
    double best_w = std::numeric_limits<double>::infinity();
    for (int q : tracker.partition().nonempty_parts()) {
      if (tracker.partition().part_internal(q) < best_w) {
        best_w = tracker.partition().part_internal(q);
        best = q;
      }
    }
    return best;
  };

  if (recorder != nullptr) recorder->record(result.best_value);

  int rejections = 0;
  PartMarkScratch connected;  // scratch: parts adjacent to a vertex
  while (!stop.done(result.steps)) {
    ++result.steps;
    const Partition& current = tracker.partition();

    // Perturbation (§3.1): random vertex; target depends on temperature.
    const auto v = static_cast<VertexId>(
        rng.below(static_cast<std::uint64_t>(g_->num_vertices())));
    const int from = current.part_of(v);
    if (current.part_size(from) <= 1) continue;  // keep k parts alive

    // One neighbor scan covers the target draw, the acceptance test and
    // the apply.
    ObjectiveTracker::TrialMove trial;
    if (temperature > options_.high_temp_fraction * tmax) {
      const int target = part_with_lowest_internal();
      if (target == -1 || target == from) continue;
      trial = tracker.trial_move(v, target);
    } else {
      const Weight own = current.neighbor_parts(v, connected);
      if (connected.marked().empty()) continue;
      const int target =
          connected.marked()[rng.below(connected.marked().size())];
      trial = tracker.trial_move(v, target, {own, connected.weight(target)});
    }
    const double delta = trial.delta;
    const bool accept =
        delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
    if (accept) {
      tracker.move(trial);
      ++result.accepted;
      // Epsilon guard: dust-level "improvements" between equal-quality
      // states would otherwise trigger O(n) best copies and meaningless
      // recorder points on late plateaus.
      if (tracker.value() < result.best_value - 1e-12) {
        result.best_value = tracker.value();
        result.best = tracker.partition();
        if (recorder != nullptr) recorder->record(result.best_value);
      }
    } else {
      ++rejections;
      // Equilibrium: a fixed number of refused solutions since the last
      // cooling (§3.1) — cumulative, not consecutive: at high temperature
      // refusals are rare and a consecutive count would never trip.
      if (rejections >= options_.equilibrium_rejections) {
        rejections = 0;
        temperature *= options_.cooling;
        ++result.coolings;
        if (temperature <= tmin) {
          // Freezing point: restart the schedule from the best solution.
          temperature = tmax;
          tracker.reset(result.best, result.best_value);
        }
      }
    }
  }
  return result;
}

}  // namespace ffp
