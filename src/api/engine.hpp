// api::Engine — the one async solve facade everything in the repo runs
// through. submit(Problem, SolveSpec) maps the spec onto the service
// JobScheduler (always: the CLI's one-shot solve and a daemon tenant's job
// take the identical code path, lease workers from the same ThreadBudget,
// and honor the same determinism contract) and returns a SolveHandle —
// wait / poll / cancel, with anytime best-so-far on cancel and an optional
// per-solve improvement stream.
//
// A result cache rides on the facade: deterministic solves (step budget,
// or a direct solver) are keyed on (graph content digest, canonical
// SolveSpec) in a small LRU, so repeat submissions cost a lookup instead
// of a solve. Cache hits come back as already-terminal handles.
//
// Lifetime: a handle shares its job record (service/job_scheduler.hpp)
// with the scheduler, which holds the job only while it is queued or
// running; a finished job belongs to its handles and is freed with the
// last one. The engine's destructor cancels what is queued and lets
// running jobs finish, so a handle outliving its Engine can still be
// waited on and cancelled (cancel() is then false). Shared results co-own
// their graph, so a result outlives its job, its Problem and a cache
// eviction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "api/problem.hpp"
#include "api/result_cache.hpp"
#include "api/solve_spec.hpp"
#include "evolve/elite_archive.hpp"
#include "service/job_scheduler.hpp"

namespace ffp::api {

struct EngineOptions {
  unsigned runners = 1;  ///< concurrent solves (JobScheduler runners)
  /// Worker governor every solve leases from; null uses the process-wide
  /// ThreadBudget::process().
  ThreadBudget* budget = nullptr;
  std::size_t cache_capacity = 0;  ///< result-cache entries; 0 disables
  /// Bounded submit queue: beyond this many queued solves, submit() throws
  /// ServiceError(Overloaded) with a retry-after hint (load shedding).
  /// 0 = unbounded. Cache hits never count — they are answered inline.
  std::size_t max_queued = 0;
  /// Durable-state directory (empty = fully in-memory, the historical
  /// behavior, bit-identical and zero-overhead). When set the engine
  /// becomes crash-safe: deterministic solves leave a write-ahead record
  /// in `<dir>/journal.rec` and their finished results as atomic files
  /// under `<dir>/cache/`; solve checkpoints live under
  /// `<dir>/checkpoints/`, inline graphs are spilled to `<dir>/graphs/`.
  /// Construction replays the journal — persisted results reload into the
  /// result cache and unfinished jobs are resubmitted (idempotent: a
  /// resubmission whose result already landed is a cache hit). A state
  /// dir implies a result cache: cache_capacity 0 is bumped to a default
  /// so durability has somewhere to land.
  std::string state_dir;
  /// Elite-archive capacity per (graph digest, k, objective) population
  /// (src/evolve/): every finished Done solve feeds its partition back,
  /// and SolveSpec::evolve portfolios seed from the population. 0 turns
  /// the archive (and evolve mode) off. With a state_dir, populations
  /// persist under `<dir>/evolve/` and survive restarts.
  std::size_t evolve_capacity = 8;
};

/// Per-solve improvement stream: (seconds since the solve started, new
/// best objective value). Called from engine runner threads — must be
/// thread-safe against the caller's own state.
using ImprovementFn = std::function<void(double seconds, double value)>;

/// Per-solve terminal notification: fired exactly once, for ANY terminal
/// state (Done, Failed, Cancelled), after the result has been cached and
/// fed to the elite archive and after the handle reads terminal. Called
/// from the thread that ended the job — an engine runner, or the thread
/// that cancelled it in the queue or shut the engine down — so it must be
/// thread-safe and must neither block nor throw. Cache hits never fire it
/// (the handle is already terminal at submit; poll it first).
using TerminalFn = std::function<void(const JobStatus& status)>;

/// Async handle on one submitted solve. Cheap to copy; the default-
/// constructed handle is invalid. All methods are thread-safe.
class SolveHandle {
 public:
  SolveHandle() = default;

  bool valid() const { return job_ != nullptr || cached(); }
  /// True when the solve was served from the result cache (already
  /// terminal at submit; job_id() is 0).
  bool cached() const { return immediate_ != nullptr; }
  std::uint64_t job_id() const { return job_ != nullptr ? job_->id() : 0; }

  /// Point-in-time status (state, seconds, progress trajectory, result
  /// once terminal).
  JobStatus poll() const;
  /// Blocks until the solve is terminal. Never throws on solver failure —
  /// inspect status.state / status.error (Engine::solve wraps this with
  /// throwing semantics).
  JobStatus wait() const;
  /// Deadline-bounded wait(): the final status when the solve went
  /// terminal within `timeout_ms`, std::nullopt otherwise. Cache hits are
  /// already terminal and always return immediately.
  std::optional<JobStatus> wait_for(double timeout_ms) const;
  /// Queued → removed; running → stopped early with its best-so-far
  /// attached (anytime semantics). False when already terminal or cached.
  bool cancel() const;

 private:
  friend class Engine;
  explicit SolveHandle(std::shared_ptr<Job> job) : job_(std::move(job)) {}
  explicit SolveHandle(std::shared_ptr<const JobStatus> immediate)
      : immediate_(std::move(immediate)) {}

  std::shared_ptr<Job> job_;
  std::shared_ptr<const JobStatus> immediate_;  ///< cache hits only
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Cancels everything queued, waits for running solves.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validates and enqueues one solve. Throws ffp::Error on specs that do
  /// not resolve (unknown method, bad options, k < 1, ...) — failures
  /// happen at the API boundary, not inside a runner. `on_improvement`
  /// streams best-so-far improvements for this solve only.
  SolveHandle submit(const Problem& problem, const SolveSpec& spec,
                     ImprovementFn on_improvement = {},
                     TerminalFn on_terminal = {});

  /// submit + wait with throwing semantics: returns the finished result,
  /// throws ffp::Error when the solve failed or was cancelled before
  /// producing a partition.
  SolverResult solve(const Problem& problem, const SolveSpec& spec,
                     ImprovementFn on_improvement = {});

  /// Blocks until every submitted solve is terminal and its result is in
  /// the cache, the durable cache and the archive.
  void drain();

  CacheCounters cache_counters() const;
  /// Elite-archive health (admissions, evictions, snapshot hit rate, …).
  evolve::ArchiveCounters archive_counters() const;
  /// Best archived objective value for one population, if any — the
  /// per-digest quality floor status replies report.
  std::optional<double> archive_best(std::uint64_t digest, int k,
                                     ObjectiveKind objective) const;
  /// Offers a foreign partition (an elite migrated from a peer shard) to
  /// the archive under the usual diversity-aware admission rules. Returns
  /// true when the population changed. No-op (false) with the archive off.
  bool archive_admit(std::uint64_t digest, int k, ObjectiveKind objective,
                     std::span<const int> assignment, double value);
  /// Best elite of every non-empty population — what elite migration
  /// ships to peer shards.
  std::vector<std::pair<evolve::PopulationKey, evolve::Elite>>
  archive_exports() const;
  JobScheduler& scheduler();

  /// Jobs the constructor resubmitted from a recovered journal (0 without
  /// a state dir, or after a clean shutdown).
  std::size_t recovered_jobs() const;

  /// The process-wide engine CLI-style entry points share: one runner over
  /// ThreadBudget::process(), cache disabled. Created on first use.
  static Engine& shared();

 private:
  /// Journal replay half of construction: reload persisted cache entries,
  /// resubmit unfinished journaled jobs (skipping, with a stderr note, any
  /// payload that no longer parses).
  void recover();
  /// The Problem::from_any form of the graph source stored in journal
  /// payloads and cache entries; spills inline graphs to the state dir.
  std::string durable_graph_source(const Problem& problem);
  static std::string build_payload(const std::string& graph_source,
                                   const SolveSpec& spec,
                                   const ResolvedSpec& resolved);

  struct State;
  std::unique_ptr<State> impl_;
};

}  // namespace ffp::api
