// api::SolveSpec — everything that identifies ONE solve besides the graph:
// registry method spec, k, objective, seed, budget (deterministic steps or
// wall clock), portfolio restarts, queue priority, and the durable-state
// switches. It is the public request every tool, bench and example
// builds. Engine::submit resolves it once — resolve() validates it,
// constructs the solver and fixes the step budget — and turns it into the
// internal one: a JobSpec carrying one SolverRequest. So the CLI, the
// daemon, and embedded callers all run the identical pipeline.
//
// Determinism is part of the spec, not the call site: resolved_steps()
// holds the ONE copy of the old ffp_part rule — whenever parallelism is in
// play (restarts > 1) a metaheuristic's wall clock is replaced by a step
// budget derived from budget_ms, so the partition can never depend on
// scheduling.
#pragma once

#include <cstdint>
#include <string>

#include "partition/objectives.hpp"
#include "solver/solver.hpp"

namespace ffp::api {

/// One-pass resolution of a SolveSpec's method-dependent facts — computed
/// by SolveSpec::resolve() with a single solver construction, so the
/// submit hot path never re-parses the spec per question it asks.
struct ResolvedSpec {
  SolverPtr solver;              ///< the constructed (validated) solver
  std::string canonical_method;  ///< SolverRegistry::resolve's canonical text
  std::int64_t steps = 0;        ///< the budget the solve actually runs under
  bool metaheuristic = false;
  bool deterministic = false;    ///< result is a pure function of the spec
};

struct SolveSpec {
  std::string method = "fusion_fission";  ///< registry spec (solver/registry)
  int k = 2;
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;
  std::uint64_t seed = 1;
  /// Deterministic step budget. 0 = derive one from budget_ms when the
  /// request is parallel (see resolved_steps()), else run on the wall
  /// clock (which forfeits byte-identical results, exactly like the CLI).
  std::int64_t steps = 0;
  double budget_ms = 5000;
  int restarts = 1;  ///< portfolio multi-start; 1 = single run
  int priority = 0;  ///< scheduler priority; higher runs first
  /// Queue TTL: if no runner picked the solve up within this many ms it
  /// expires with a structured QueueExpired error instead of running after
  /// its caller gave up. 0 = no TTL. Like priority, this shapes WHEN work
  /// runs, never its result — it is excluded from the cache key.
  double queue_ttl_ms = 0;
  /// Durable checkpointing (engines with a --state-dir only): > 0 writes
  /// the anytime-best partition atomically at most once per interval,
  /// keyed by graph digest + checkpoint_key(). Pure observation — the
  /// solve's result is unchanged — so it is excluded from the cache key.
  std::int64_t checkpoint_every_ms = 0;
  /// Resume from the durable checkpoint for (graph, checkpoint_key())
  /// when one exists (cold start when none does). The result then depends
  /// on disk state, so a warm-started spec is never cacheable — but it is
  /// guaranteed to never be WORSE than the checkpoint it restored.
  bool warm_start = false;
  /// Evolutionary portfolio (src/evolve/): draw the `restarts` starting
  /// partitions from the engine's elite archive — crossover offspring,
  /// mutated elites, and fresh cold starts — and feed every restart's
  /// result back. Honored for the FF-family methods (fusion_fission,
  /// mlff) on an engine with a non-zero archive; otherwise the job runs
  /// as a plain portfolio. Like warm_start, the result depends on state
  /// outside the spec (the archive), so an evolve spec is never cacheable
  /// — but for a FIXED archive state it stays deterministic at any
  /// thread count (the plan is computed at submit from the spec seed).
  bool evolve = false;

  /// Nominal metaheuristic step rate used to turn budget_ms into a step
  /// budget when determinism requires one (steps overrides).
  static constexpr double kStepsPerMs = 50.0;

  /// Resolves every method-dependent fact in one pass (one solver
  /// construction, reused all the way into the scheduler): the solver
  /// itself, the canonical method, the effective step budget per THE
  /// determinism rule — `steps` when set, else budget_ms * kStepsPerMs
  /// when the spec asks for restarts > 1 and the method is a
  /// metaheuristic, else 0 (wall clock) — and the determinism verdict.
  /// Throws ffp::Error, naming the field, when k < 1, restarts < 1,
  /// steps < 0, budget_ms / queue_ttl_ms / checkpoint_every_ms is
  /// negative or NaN, or a derived step budget does not fit in int64; and
  /// on method specs that do not resolve.
  ResolvedSpec resolve() const;

  /// Convenience forms of resolve() for cold paths and tests.
  std::int64_t resolved_steps() const { return resolve().steps; }
  bool deterministic() const { return resolve().deterministic; }
  std::string canonical_method() const { return resolve().canonical_method; }

  /// The spec half of the result-cache key: canonical method plus every
  /// field that can change the partition. Priority and queue TTL are
  /// deliberately absent — the engine's determinism contract makes results
  /// independent of where and when the work ran.
  /// Returns "" when the spec is not deterministic (never cacheable), and
  /// when warm_start or evolve is set (the result then depends on the
  /// on-disk checkpoint / the elite archive, which are outside the key).
  std::string cache_key(const ResolvedSpec& resolved) const;
  std::string cache_key() const { return cache_key(resolve()); }

  /// The durable-checkpoint identity of this solve: cache_key minus the
  /// persistence knobs themselves, so the run that WRITES a checkpoint
  /// (warm_start=false) and the run that RESUMES it (warm_start=true) map
  /// to the same file. "" when the spec is not deterministic.
  std::string checkpoint_key(const ResolvedSpec& resolved) const;
};

}  // namespace ffp::api
