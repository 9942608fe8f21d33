// Ant colony k-partitioning with competing colonies (§3.2): k colonies —
// one per part — each with its own pheromone field on the arcs. Ants walk
// stochastically (pheromone^alpha · weight^beta, with a bonus on arcs their
// colony has never marked — the paper's "local heuristic forces ants to
// explore edges which have no pheromone"), deposit on the arcs they used
// (reinforced when the resulting partition improved — the backward update),
// and trails evaporate each iteration. A vertex belongs to the colony with
// the largest pheromone mass on its incident arcs. Ants from different
// colonies may stand on the same vertex; neither connectivity nor balance
// is forced — all per the paper.
//
// The colony internals the paper leaves to its French-journal companion [2]
// are filled with standard ACO choices (README, "Reproducing the paper"):
// four parameters, matching the paper's "ant colony has four parameters".
#pragma once

#include <cstdint>

#include "metaheuristics/anytime.hpp"
#include "partition/objectives.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ffp {

struct AntColonyOptions {
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;
  // The four tunables (§6: "Ant colony has four parameters"):
  int ants_per_colony = 6;
  double evaporation = 0.08;     ///< per-iteration trail decay
  double deposit = 1.0;          ///< pheromone laid per visited arc
  double explore_bonus = 2.0;    ///< multiplier on arcs with no own pheromone
  // Fixed internals:
  double alpha = 1.0;            ///< pheromone exponent
  double beta = 1.0;             ///< edge-weight exponent
  int walk_length = 24;
  std::uint64_t seed = 11;
};

struct AntColonyResult {
  Partition best;
  double best_value = 0.0;
  std::int64_t iterations = 0;
};

class AntColony {
 public:
  AntColony(const Graph& g, int k, AntColonyOptions options);

  /// Runs from `initial` (the paper seeds it with percolation): initial
  /// ownership lays down the starting pheromone field.
  AntColonyResult run(const Partition& initial, const StopCondition& stop,
                      AnytimeRecorder* recorder = nullptr);

 private:
  const Graph* g_;
  int k_;
  AntColonyOptions options_;
};

}  // namespace ffp
