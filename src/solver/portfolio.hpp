// Parallel multi-start portfolio over the Solver interface, in the spirit of
// KaFFPaE's parallel evolutionary restarts: fan N restarts of one solver
// across a ThreadPool, each with its own seed drawn from a splitmix64
// stream of the request seed, and keep the best result.
// Restarts are the only parallelism inside one job: each restart is one
// serial solver run, as in KaFFPaE, where individuals evolve in parallel
// and no single local search is parallelized.
//
// Determinism contract: the per-restart seed stream and the winner selection
// (best value, ties broken by lowest restart index) depend only on the
// request, never on scheduling — so for solvers whose individual runs are
// deterministic for a fixed seed (all direct solvers, and metaheuristics
// under a *step* budget rather than a wall-clock one), the returned best
// partition is bit-identical regardless of thread count.
//
// An optional shared anytime record merges improvements from all restarts
// into one monotone best-so-far trajectory. The trajectory is a
// scheduling-dependent subsample of the true improvement events (whether an
// intermediate value beats the global best depends on which restart got
// there first, and timestamps are wall-clock); only the final value is
// deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "solver/solver.hpp"

namespace ffp {

struct PortfolioOptions {
  int restarts = 1;
  unsigned threads = 0;  ///< 0 → hardware concurrency
  /// Process-wide governor (service/thread_budget.hpp). When set, the
  /// restart workers are *leased*: the runner takes min(threads, restarts)
  /// workers, or fewer when the budget is contended (at least one). Each
  /// restart is a serial solver run, so the grant bounds the portfolio's
  /// threads. Null keeps the fixed-size pool.
  ThreadBudget* budget = nullptr;
  /// Per-restart request customization (the evolve layer's seeding hook):
  /// called on the restart's WORKER thread, after the stream seed is set,
  /// with the restart index and the request the restart will run. Must be
  /// thread-safe and a pure function of (index, request) — e.g. reading a
  /// precomputed immutable plan — or the determinism contract breaks.
  std::function<void(int restart, SolverRequest& request)> seed_restart = {};
  /// Per-restart result observation (the evolve layer's feedback hook):
  /// called SERIALLY, in restart-index order, after every restart finished
  /// and before the winner is selected — so feeding results into an
  /// archive happens in an order that cannot depend on scheduling.
  std::function<void(int restart, const SolverResult& result)> on_result = {};
};

class PortfolioRunner {
 public:
  /// options.restarts runs of `solver`.
  PortfolioRunner(SolverPtr solver, PortfolioOptions options);

  /// Runs every restart (request.seed is replaced by the restart's stream
  /// seed; request.recorder, if any, receives the merged best-so-far
  /// trajectory) and returns the winner. The winner's stats are augmented
  /// with portfolio counters: restarts, threads, winner_restart.
  SolverResult run(const Graph& g, const SolverRequest& request) const;

  /// The per-restart seeds used for `seed`: a splitmix64 stream, computed
  /// up front so it cannot depend on scheduling.
  static std::vector<std::uint64_t> seed_stream(std::uint64_t seed, int n);

 private:
  SolverPtr solver_;
  PortfolioOptions options_;
};

}  // namespace ffp
