// The engine layer: every partitioner in the repo — the paper's
// fusion-fission contribution, the two rival metaheuristics, and the whole
// Chaco family (linear / spectral / multilevel / percolation) — behind one
// uniform `Solver` interface, so CLIs, benches and the portfolio runner
// construct and drive them identically.
//
// The split mirrors Table 1: *direct* solvers ignore the stop condition and
// objective (they minimize Cut once, deterministically for a given seed);
// *metaheuristics* honor the wall-clock/step budget and optimize the
// requested criterion anytime-style. Both return a `SolverResult` whose
// `best_value` is always the requested objective evaluated on the returned
// partition, which is what lets a portfolio compare its restarts.
//
// This header is the interface only. Each family's options, run and flags
// live in its one registry entry (solver/registry.cpp), the only place
// that includes the algorithms; parallel multi-start composition lives in
// solver/portfolio.hpp.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "metaheuristics/anytime.hpp"
#include "partition/objectives.hpp"
#include "partition/partition.hpp"
#include "util/timer.hpp"

namespace ffp {

class ThreadBudget;  // service/thread_budget.hpp

/// Everything a solver needs for one run. api::Engine builds it once per
/// job (a JobSpec carries it) and the portfolio copies it per restart.
/// The stop condition is re-armed (copied and restarted) at the top of
/// every run(), so a request can be built ahead of time and reused across
/// restarts.
struct SolverRequest {
  int k = 2;
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;
  StopCondition stop;                   ///< metaheuristics only
  std::uint64_t seed = 1;
  AnytimeRecorder* recorder = nullptr;  ///< optional anytime trajectory
  /// Read by no solver: every run is serial, and parallelism lives in
  /// PortfolioRunner and JobScheduler, which take their budget through
  /// their own options. Kept declared only because perfbench/ladder.cpp
  /// assigns it; delete it together with that assignment.
  ThreadBudget* budget = nullptr;
  /// Warm start, incumbent and checkpointing (metaheuristics/anytime.hpp),
  /// passed straight through to the fusion-fission and mlff kernels and
  /// ignored by the other solvers.
  RunHooks hooks;
};

struct SolverResult {
  Partition best;
  double best_value = 0.0;  ///< request.objective evaluated on `best`
  double seconds = 0.0;     ///< wall clock of the run() call
  /// Solver-specific counters (steps, fusions, coolings, …) for reporting.
  std::vector<std::pair<std::string, double>> stats;

  double stat(std::string_view name, double fallback = 0.0) const;
};

/// `result` as a shared immutable value that co-owns `graph`, the graph
/// its Partition points into, so it stays usable after the job and the
/// Problem that made it are gone. Every shared result the job scheduler
/// or the result cache hands out is built here.
std::shared_ptr<const SolverResult> share_result(
    SolverResult result, std::shared_ptr<const Graph> graph);

/// How far a solver takes part in evolve portfolios (src/evolve/): which
/// restart seeds it honors with the never-worse-than-the-seed contract
/// the evolve plan relies on.
enum class EvolveSupport {
  None,        ///< an evolve spec runs as a plain portfolio
  MutateOnly,  ///< restarts may warm-start from archived elites
  Crossover,   ///< ... and from the overlay of two elites
};

class Solver {
 public:
  virtual ~Solver() = default;

  virtual std::string name() const = 0;
  /// True for budgeted, objective-aware solvers; false for the direct
  /// (deterministic, Cut-minimizing) Chaco family.
  virtual bool is_metaheuristic() const = 0;
  virtual EvolveSupport evolve_support() const { return EvolveSupport::None; }
  virtual SolverResult run(const Graph& g, const SolverRequest& request) const = 0;
};

using SolverPtr = std::shared_ptr<const Solver>;

}  // namespace ffp
