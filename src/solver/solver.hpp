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
// partition, which is what lets a mixed portfolio compare apples to apples.
//
// Construction by name + options lives in solver/registry.hpp; parallel
// multi-start composition lives in solver/portfolio.hpp.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fusion_fission.hpp"
#include "graph/graph.hpp"
#include "metaheuristics/annealing.hpp"
#include "metaheuristics/ant_colony.hpp"
#include "metaheuristics/anytime.hpp"
#include "metaheuristics/percolation.hpp"
#include "multilevel/mlff.hpp"
#include "multilevel/multilevel.hpp"
#include "partition/objectives.hpp"
#include "partition/partition.hpp"
#include "spectral/linear_partition.hpp"
#include "spectral/spectral_partition.hpp"
#include "util/timer.hpp"

namespace ffp {

class ThreadBudget;  // service/thread_budget.hpp

/// Everything a solver needs for one run. The stop condition is re-armed
/// (copied and restarted) by each solver at the top of run(), so a request
/// can be built ahead of time and reused across restarts.
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
  // Durable-solve hooks (persist/), honored by the anytime-capable
  // fusion-fission and mlff adapters and ignored by the rest. See
  // FusionFissionOptions for the contract.
  std::shared_ptr<const std::vector<int>> warm_start;
  /// The objective value the checkpoint recorded for `warm_start`, as
  /// accumulated by the run that wrote it. Re-evaluating the restored
  /// partition can land an ulp away (different summation order); adopting
  /// the lower rendering keeps resume monotonicity exact. Infinity (the
  /// default) means "unknown — trust the re-evaluation".
  double warm_start_value = std::numeric_limits<double>::infinity();
  std::int64_t checkpoint_every_ms = 0;
  std::function<void(const std::vector<int>& assignment, double value)>
      checkpoint_sink;
  /// Memetic incumbent (evolve crossover): a k-part assignment that CAPS
  /// the reported result — the run can never return worse than
  /// min(incumbent_value, its evaluation). Fusion-fission seeds best-at-k
  /// from it in-search (the offspring may still improve on it); mlff
  /// applies it as a post-hoc guard; the other solvers ignore it.
  std::shared_ptr<const std::vector<int>> incumbent;
  double incumbent_value = std::numeric_limits<double>::infinity();
};

struct SolverResult {
  Partition best;
  double best_value = 0.0;  ///< request.objective evaluated on `best`
  double seconds = 0.0;     ///< wall clock of the run() call
  /// Solver-specific counters (steps, fusions, coolings, …) for reporting.
  std::vector<std::pair<std::string, double>> stats;

  double stat(std::string_view name, double fallback = 0.0) const;
};

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

// --------------------------------------------------------------------------
// Adapters. Each wraps one algorithm with its native options struct; the
// request's objective and seed always override the corresponding fields of
// the base options, so a solver instance is reusable across runs and seeds.
// --------------------------------------------------------------------------

/// The paper's contribution (§4). Metaheuristic.
class FusionFissionSolver final : public Solver {
 public:
  explicit FusionFissionSolver(FusionFissionOptions base = {})
      : base_(std::move(base)) {}
  std::string name() const override { return "fusion_fission"; }
  bool is_metaheuristic() const override { return true; }
  EvolveSupport evolve_support() const override {
    return EvolveSupport::Crossover;
  }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  FusionFissionOptions base_;
};

/// Multilevel × fusion-fission hybrid (multilevel/mlff.hpp) — fusion-
/// fission run on a coarsened graph, projected back with boundary
/// refinement bursts. Metaheuristic: the stop condition governs the
/// coarse-level search.
class MlffSolver final : public Solver {
 public:
  explicit MlffSolver(MlffOptions base = {}) : base_(std::move(base)) {}
  std::string name() const override { return "mlff"; }
  bool is_metaheuristic() const override { return true; }
  /// The incumbent is only a post-hoc guard here, so no crossover.
  EvolveSupport evolve_support() const override {
    return EvolveSupport::MutateOnly;
  }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  MlffOptions base_;
};

/// Simulated annealing (§3.1), seeded from percolation as in the paper.
class AnnealingSolver final : public Solver {
 public:
  explicit AnnealingSolver(AnnealingOptions base = {}) : base_(std::move(base)) {}
  std::string name() const override { return "annealing"; }
  bool is_metaheuristic() const override { return true; }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  AnnealingOptions base_;
};

/// Competing ant colonies (§3.2), seeded from percolation as in the paper.
class AntColonySolver final : public Solver {
 public:
  explicit AntColonySolver(AntColonyOptions base = {}) : base_(std::move(base)) {}
  std::string name() const override { return "ant_colony"; }
  bool is_metaheuristic() const override { return true; }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  AntColonyOptions base_;
};

/// Multilevel partitioning (§2.2). Direct.
class MultilevelSolver final : public Solver {
 public:
  explicit MultilevelSolver(MultilevelOptions base = {}) : base_(std::move(base)) {}
  std::string name() const override { return "multilevel"; }
  bool is_metaheuristic() const override { return false; }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  MultilevelOptions base_;
};

/// Recursive spectral partitioning (§2.1). Direct. `final_kway_refine`
/// applies the Chaco REFINE_PARTITION analog after the recursion, exactly
/// as the Table-1 protocol does.
class SpectralSolver final : public Solver {
 public:
  explicit SpectralSolver(SpectralOptions base = {}, bool final_kway_refine = true)
      : base_(std::move(base)), final_kway_refine_(final_kway_refine) {}
  std::string name() const override { return "spectral"; }
  bool is_metaheuristic() const override { return false; }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  SpectralOptions base_;
  bool final_kway_refine_;
};

/// Chaco's linear scheme, plain or KL-recursive. Direct.
class LinearSolver final : public Solver {
 public:
  explicit LinearSolver(LinearOptions base = {}) : base_(base) {}
  std::string name() const override { return "linear"; }
  bool is_metaheuristic() const override { return false; }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  LinearOptions base_;
};

/// Standalone percolation partitioning (§4.4). Direct.
class PercolationSolver final : public Solver {
 public:
  explicit PercolationSolver(PercolationOptions base = {}) : base_(base) {}
  std::string name() const override { return "percolation"; }
  bool is_metaheuristic() const override { return false; }
  SolverResult run(const Graph& g, const SolverRequest& request) const override;

 private:
  PercolationOptions base_;
};

}  // namespace ffp
