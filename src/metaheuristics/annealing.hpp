// Simulated annealing adapted to k-partitioning, following §3.1 of the
// paper: the perturbation picks a random vertex and moves it — at high
// temperature to the part with the lowest internal weight ("the lowest
// partition regarding the sum of edges weight which are entirely inside
// partitions"), otherwise to a random *connected* part. Equilibrium is a
// fixed number of consecutive rejections; then the temperature drops.
// Connectivity of parts is not forced, exactly as the paper stresses.
//
// Interpretation notes (also in README, "Reproducing the paper"): the
// paper's cooling formula D(T) = T·(tmax−tmin)/tmax is degenerate for its
// own tmin = 0 setting (no decrease), so the ratio is used as a geometric
// cooling factor; tmax auto-calibrates to the move-delta scale when not
// set, since Cut and Mcut live on very different numeric ranges.
#pragma once

#include <cstdint>
#include <optional>

#include "metaheuristics/anytime.hpp"
#include "partition/objectives.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ffp {

struct AnnealingOptions {
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;
  /// tmax <= 0 auto-calibrates from the median |Δ| of sampled random moves
  /// (the paper's single tuned parameter).
  double tmax = 0.0;
  // Schedule defaults are sized for millions of steps per second on modern
  // hardware: a fast schedule (small equilibrium / aggressive cooling)
  // freezes in milliseconds and plateaus far above what the slow schedule
  // reaches.
  double tmin_fraction = 1e-3;        ///< tmin = tmax · fraction
  double cooling = 0.99;              ///< geometric factor (see header note)
  int equilibrium_rejections = 1024;  ///< refusals per temperature plateau
  double high_temp_fraction = 0.5;    ///< T > frac·tmax => "high temperature"
  std::uint64_t seed = 5;
};

struct AnnealingResult {
  Partition best;
  double best_value = 0.0;
  std::int64_t steps = 0;
  std::int64_t accepted = 0;
  int coolings = 0;
};

class SimulatedAnnealing {
 public:
  SimulatedAnnealing(const Graph& g, int k, AnnealingOptions options);

  /// Runs from `initial` (the paper starts SA from percolation's output).
  AnnealingResult run(const Partition& initial, const StopCondition& stop,
                      AnytimeRecorder* recorder = nullptr);

 private:
  const Graph* g_;
  int k_;
  AnnealingOptions options_;
};

}  // namespace ffp
