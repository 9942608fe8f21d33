// Parallel multi-start portfolio over the Solver interface, in the spirit of
// KaFFPaE's parallel evolutionary restarts: run N restarts of one solver on
// the calling thread and up to N − 1 leased worker threads, each with its
// own seed drawn from a splitmix64 stream of the request seed, and keep the
// best result.
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
  /// The governor the restart workers lease from (service/thread_budget.hpp);
  /// null uses ThreadBudget::process(). The calling thread runs restarts
  /// too and leases only restarts − 1 workers, taking fewer when the budget
  /// is contended — with none, it runs every restart itself. Each restart is
  /// a serial solver run, so the portfolio's threads are 1 + the grant.
  ThreadBudget* budget = nullptr;
  /// Per-restart request customization (the evolve layer's seeding hook):
  /// called on whichever thread runs the restart, after the stream seed is
  /// set, with the restart index and the request the restart will run. Must
  /// be thread-safe and a pure function of (index, request) — e.g. reading
  /// a precomputed immutable plan — or the determinism contract breaks.
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
  /// with portfolio counters: restarts, threads, winner_restart. If any
  /// restart threw, rethrows the lowest-index restart's exception once
  /// every restart has finished.
  SolverResult run(const Graph& g, const SolverRequest& request) const;

  /// The per-restart seeds used for `seed`: a splitmix64 stream, computed
  /// up front so it cannot depend on scheduling.
  static std::vector<std::uint64_t> seed_stream(std::uint64_t seed, int n);

 private:
  SolverPtr solver_;
  PortfolioOptions options_;
};

}  // namespace ffp
