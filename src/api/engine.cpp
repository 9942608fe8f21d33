#include "api/engine.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "evolve/plan.hpp"
#include "persist/checkpoint.hpp"
#include "persist/journal.hpp"
#include "util/strings.hpp"

namespace ffp::api {

namespace {

/// On-disk cache entry format version (persist::read_records framing).
constexpr std::uint32_t kCacheEntryVersion = 1;

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Deterministic file name for one persisted cache entry: any process
/// maps the same key to the same file (the eviction hook relies on it).
std::string cache_entry_name(const std::string& key) {
  return format("e-%016llx.rec",
                static_cast<unsigned long long>(fnv1a64(key)));
}

/// `key=value` lines -> map, splitting at the FIRST '=' (values may
/// contain '='; keys never do). Blank lines are skipped.
std::map<std::string, std::string> parse_payload(const std::string& payload) {
  std::map<std::string, std::string> out;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto eq = line.find('=');
    FFP_CHECK(eq != std::string::npos && eq > 0,
              "journal payload line is not key=value: ", line);
    out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

const std::string& payload_field(
    const std::map<std::string, std::string>& fields, const char* key) {
  const auto it = fields.find(key);
  FFP_CHECK(it != fields.end(), "journal payload is missing '", key, "'");
  return it->second;
}

}  // namespace

/// The state handles share with their engine: the scheduler, the cache,
/// and the per-job bookkeeping the scheduler hooks dispatch on.
struct SolveHandle::EngineState {
  explicit EngineState(const EngineOptions& options)
      // A state dir implies a result cache (durable entries need an
      // in-memory tier to reload into); an explicit capacity wins.
      : cache(options.cache_capacity == 0 && !options.state_dir.empty()
                  ? kDefaultDurableCacheCapacity
                  : options.cache_capacity),
        state_dir(options.state_dir),
        archive(evolve::ArchiveOptions{
            options.evolve_capacity,
            options.state_dir.empty() ? std::string()
                                      : options.state_dir + "/evolve"}) {
    JobSchedulerOptions sched;
    sched.runners = options.runners;
    sched.budget = options.budget;
    sched.max_queued = options.max_queued;
    sched.overload_retry_after_ms = options.overload_retry_after_ms;
    sched.on_improvement = [this](std::uint64_t job, double seconds,
                                  double value) {
      handle_improvement(job, seconds, value);
    };
    sched.on_terminal = [this](std::uint64_t job, const JobStatus& status) {
      finalize(job, status);
    };
    if (!state_dir.empty()) {
      persist::ensure_dir(state_dir);
      persist::ensure_dir(state_dir + "/cache");
      persist::ensure_dir(state_dir + "/checkpoints");
      persist::ensure_dir(state_dir + "/graphs");
      journal = std::make_unique<persist::Journal>(state_dir + "/journal.rec");
      sched.journal = journal.get();
      cache.set_eviction_hook(
          [dir = state_dir + "/cache"](const std::string& key) {
            persist::remove_file(dir + "/" + cache_entry_name(key));
          });
    }
    scheduler = std::make_unique<JobScheduler>(std::move(sched));
  }

  static constexpr std::size_t kDefaultDurableCacheCapacity = 64;

  struct Pending {
    std::string cache_key;  ///< empty: not cacheable
    /// Problem::from_any form of the graph source, for the durable cache
    /// entry (empty when this job is not persisted).
    std::string graph_source;
    ImprovementFn on_improvement;
    /// Fired exactly once by finalize(), for any terminal state, after
    /// the cache/archive feedback — the async delivery channel the event
    /// loop's sessions use instead of blocking in wait().
    TerminalFn on_terminal;
    /// Archive feedback: Done results admit into this population (every
    /// finished solve grows the archive, evolve-mode or not).
    evolve::PopulationKey population;
    bool feed_archive = false;
  };

  void handle_improvement(std::uint64_t job, double seconds, double value) {
    ImprovementFn fn;
    {
      std::lock_guard lock(mu);
      const auto it = pending.find(job);
      if (it == pending.end() || !it->second.on_improvement) return;
      fn = it->second.on_improvement;
    }
    // Invoked outside mu so a slow consumer stalls only its own runner
    // thread. Safe against unregistration: improvements fire synchronously
    // from inside the solve, strictly before the job's terminal transition
    // — anyone who waited for terminal can never observe an in-flight call.
    fn(seconds, value);
  }

  /// Exactly-once job finalization: feeds the cache and drops the
  /// callbacks. Raced by the scheduler's on_terminal hook AND by any
  /// handle observing a terminal status (so a wait() returning Done is
  /// guaranteed to see the result cached before it returns); the pending
  /// entry is the tie-breaker.
  void finalize(std::uint64_t job, const JobStatus& status) {
    std::string key;
    std::string source;
    TerminalFn done;
    evolve::PopulationKey population;
    bool feed = false;
    {
      std::lock_guard lock(mu);
      const auto it = pending.find(job);
      if (it == pending.end()) return;
      key = std::move(it->second.cache_key);
      source = std::move(it->second.graph_source);
      done = std::move(it->second.on_terminal);
      population = it->second.population;
      feed = it->second.feed_archive;
      pending.erase(it);
    }
    if (status.state == JobState::Done) {
      cache.put(key, status.result);
      persist_cache_entry(key, source, status.result.get());
      if (feed && status.result != nullptr) {
        // Cross-job learning: every finished partition is offered to its
        // population (exact duplicates are rejected there, so the evolve
        // per-restart feedback and this winner feedback never double up).
        archive.admit(population, status.result->best.assignment(),
                      status.result->best_value);
      }
    }
    // After the cache/archive feed: a terminal notification implies the
    // result is observable through the cache. Outside mu — the callback
    // may re-enter the engine (status probes, even submits).
    if (done) done(status);
  }

  /// Durable twin of cache.put(): the finished result as one atomic CRC-
  /// framed file under state_dir/cache. Best-effort — a full disk must
  /// not fail a solve that already succeeded — and ordered BEFORE the
  /// journal's terminal record (scheduler contract), so a terminal record
  /// implies the entry is on disk.
  void persist_cache_entry(const std::string& key, const std::string& source,
                           const SolverResult* result) {
    if (state_dir.empty() || key.empty() || source.empty() ||
        result == nullptr) {
      return;
    }
    std::string body = "key " + key + "\n";
    body += "graph " + source + "\n";
    body += format("value %.17g\n", result->best_value);
    body += format("seconds %.17g\n", result->seconds);
    for (const int p : result->best.assignment()) {
      body += std::to_string(p);
      body += '\n';
    }
    try {
      persist::write_records_atomic(state_dir + "/cache/" +
                                        cache_entry_name(key),
                                    kCacheEntryVersion, {body});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ffp: cache persist failed (non-fatal): %s\n",
                   e.what());
    }
  }

  /// Startup half: every readable entry under state_dir/cache reloads
  /// into the in-memory cache; anything damaged or stale (graph gone,
  /// digest mismatch) is deleted rather than trusted.
  void load_persisted_cache() {
    if (state_dir.empty() || !cache.enabled()) return;
    const std::string dir = state_dir + "/cache";
    for (const auto& name : persist::list_dir(dir)) {
      const std::string path = dir + "/" + name;
      try {
        load_one_entry(path);
      } catch (const std::exception&) {
        persist::remove_file(path);
      }
    }
  }

  void load_one_entry(const std::string& path) {
    const auto read = persist::read_records(path, kCacheEntryVersion);
    FFP_CHECK(read.records.size() == 1 && !read.truncated,
              "damaged cache entry");
    std::istringstream in(read.records[0]);
    std::string line;
    auto field = [&](const char* prefix) {
      FFP_CHECK(std::getline(in, line) && line.rfind(prefix, 0) == 0,
                "cache entry missing '", prefix, "'");
      return line.substr(std::string_view(prefix).size());
    };
    const std::string key = field("key ");
    const std::string source = field("graph ");
    const double value = std::stod(field("value "));
    const double seconds = std::stod(field("seconds "));
    std::vector<int> parts;
    while (std::getline(in, line)) {
      if (!line.empty()) parts.push_back(std::stoi(line));
    }
    const Problem problem = Problem::from_any(source);
    FFP_CHECK(parts.size() == static_cast<std::size_t>(
                                  problem.graph().num_vertices()),
              "cache entry size mismatch");
    // The key embeds the graph digest; a source file that changed since
    // the entry was written no longer matches and the entry is stale.
    const std::string expect =
        format("g%016llx|", static_cast<unsigned long long>(problem.digest()));
    FFP_CHECK(key.rfind(expect, 0) == 0, "cache entry digest mismatch");
    std::shared_ptr<const Graph> g = problem.share();
    SolverResult res{Partition::from_assignment(*g, parts), value, seconds,
                     {}};
    // Results reference their graph; pin it for the engine's lifetime.
    pinned_graphs.push_back(std::move(g));
    cache.put(key, std::make_shared<const SolverResult>(std::move(res)));
  }

  ResultCache cache;
  std::mutex mu;
  std::map<std::uint64_t, Pending> pending;
  const std::string state_dir;  ///< empty: persistence off
  std::unique_ptr<persist::Journal> journal;
  /// Graphs backing reloaded cache entries (Partition holds a Graph*).
  std::vector<std::shared_ptr<const Graph>> pinned_graphs;
  std::size_t recovered_count = 0;
  /// Declared before the scheduler: portfolio feedback closures hold a raw
  /// pointer to it, so it must outlive the runner threads.
  evolve::EliteArchive archive;
  /// Last member: destroyed (and its runner threads joined) first, so the
  /// hooks above can never fire into a dead EngineState.
  std::unique_ptr<JobScheduler> scheduler;
};

namespace {

bool is_terminal(JobState state) {
  return state == JobState::Done || state == JobState::Cancelled ||
         state == JobState::Failed;
}

}  // namespace

JobStatus SolveHandle::poll() const {
  FFP_CHECK(valid(), "poll on an empty SolveHandle");
  if (cached()) return *immediate_;
  const JobStatus status = impl_->scheduler->status(job_);
  if (is_terminal(status.state)) impl_->finalize(job_, status);
  return status;
}

JobStatus SolveHandle::wait() const {
  FFP_CHECK(valid(), "wait on an empty SolveHandle");
  if (cached()) return *immediate_;
  const JobStatus status = impl_->scheduler->wait(job_);
  impl_->finalize(job_, status);
  return status;
}

std::optional<JobStatus> SolveHandle::wait_for(double timeout_ms) const {
  FFP_CHECK(valid(), "wait_for on an empty SolveHandle");
  if (cached()) return *immediate_;
  const std::optional<JobStatus> status =
      impl_->scheduler->wait_for(job_, timeout_ms);
  if (status.has_value()) impl_->finalize(job_, *status);
  return status;
}

bool SolveHandle::cancel() const {
  FFP_CHECK(valid(), "cancel on an empty SolveHandle");
  if (cached()) return false;
  return impl_->scheduler->cancel(job_);
}

Engine::Engine(EngineOptions options)
    : impl_(std::make_shared<SolveHandle::EngineState>(options)) {
  recover();
}

Engine::~Engine() { impl_->scheduler->shutdown(); }

SolveHandle Engine::submit(const Problem& problem, const SolveSpec& spec,
                           ImprovementFn on_improvement,
                           TerminalFn on_terminal) {
  FFP_CHECK(problem.valid(), "submit needs a valid Problem");

  // One resolution pass answers everything method-dependent (and rejects
  // bad specs here, at the API boundary).
  const ResolvedSpec resolved = spec.resolve();

  std::string key;
  const std::string spec_key = spec.cache_key(resolved);
  if (impl_->cache.enabled() && resolved.deterministic && !spec_key.empty()) {
    key = format("g%016llx|",
                 static_cast<unsigned long long>(problem.digest())) +
          spec_key;
    if (auto hit = impl_->cache.get(key)) {
      auto status = std::make_shared<JobStatus>();
      status->state = JobState::Done;
      status->seconds = 0.0;  // nothing ran; result->seconds has the solve
      status->result = std::move(hit);
      return SolveHandle(impl_, 0, std::move(status));
    }
  }

  JobSpec job;
  job.graph = problem.share();
  job.method = spec.method;
  job.solver = resolved.solver;  // spec resolved once, reused by the runner
  job.k = spec.k;
  job.objective = spec.objective;
  job.seed = spec.seed;
  job.steps = resolved.steps;
  job.budget_ms = spec.budget_ms;
  job.priority = spec.priority;
  job.restarts = spec.restarts;
  job.queue_ttl_ms = spec.queue_ttl_ms;

  // Evolutionary portfolio wiring (src/evolve/). Only solvers that declare
  // evolve support honor the warm-start/incumbent seeding channels with
  // the never-worsen contract the plan relies on; for anything else an
  // evolve spec degrades to a plain (uncached) portfolio. The plan is
  // computed HERE, from one archive snapshot and the spec seed, so the
  // restart workers only read immutable state — byte-identical at any
  // thread count for a fixed archive.
  const evolve::PopulationKey population{problem.digest(), spec.k,
                                         spec.objective};
  const EvolveSupport support = resolved.solver->evolve_support();
  const bool feed_archive =
      impl_->archive.enabled() && resolved.metaheuristic;
  if (spec.evolve && impl_->archive.enabled() &&
      support != EvolveSupport::None) {
    auto plan = std::make_shared<const evolve::EvolvePlan>(evolve::plan_evolve(
        impl_->archive, population, spec.restarts, spec.seed,
        /*allow_crossover=*/support == EvolveSupport::Crossover,
        static_cast<std::size_t>(problem.graph().num_vertices())));
    job.seed_restart = [plan, graph = job.graph](int restart,
                                                 SolverRequest& request) {
      evolve::apply_restart_seed(*plan, *graph, restart, request);
    };
    // Raw pointer, not the shared EngineState: the archive outlives the
    // scheduler by member order, and a shared_ptr here would cycle
    // (state -> scheduler -> job -> closure -> state).
    job.on_restart_result = [archive = &impl_->archive, population](
                                int, const SolverResult& result) {
      archive->admit(population, result.best.assignment(),
                     result.best_value);
    };
  }

  // Durable-state wiring — deterministic solves only: a wall-clock run is
  // not reproducible, so journaling its spec or keying a checkpoint on it
  // would promise a recovery nobody can honor.
  std::string graph_source;
  if (impl_->journal != nullptr && resolved.deterministic) {
    graph_source = durable_graph_source(problem);
    job.journal_payload = build_payload(graph_source, spec, resolved);
    if (spec.checkpoint_every_ms > 0 || spec.warm_start) {
      const std::string ckpath = persist::checkpoint_path(
          impl_->state_dir + "/checkpoints", problem.digest(),
          spec.checkpoint_key(resolved));
      if (spec.checkpoint_every_ms > 0) {
        job.checkpoint_every_ms = spec.checkpoint_every_ms;
        job.checkpoint_sink = [ckpath, k = spec.k](
                                  const std::vector<int>& parts,
                                  double value) {
          // Checkpointing is an optimization, never an obligation: a
          // failed write must not fail the solve it observes.
          try {
            persist::save_checkpoint(ckpath,
                                     persist::Checkpoint{k, value, parts});
          } catch (const std::exception&) {
          }
        };
      }
      if (spec.warm_start) {
        auto ck = persist::load_checkpoint(ckpath);
        if (ck.has_value() && ck->k == spec.k &&
            ck->assignment.size() ==
                static_cast<std::size_t>(problem.graph().num_vertices())) {
          job.warm_start = std::make_shared<std::vector<int>>(
              std::move(ck->assignment));
          job.warm_start_value = ck->value;
        }
        // No (usable) checkpoint: cold start, by contract.
      }
    }
  }

  std::uint64_t id = 0;
  {
    // Submit and register under one lock: the scheduler's hooks (which
    // lock the same mutex) cannot observe the gap between the scheduler
    // knowing the job and the engine knowing its callbacks.
    std::lock_guard lock(impl_->mu);
    id = impl_->scheduler->submit(std::move(job));
    impl_->pending.emplace(
        id, SolveHandle::EngineState::Pending{std::move(key),
                                              std::move(graph_source),
                                              std::move(on_improvement),
                                              std::move(on_terminal),
                                              population, feed_archive});
  }
  return SolveHandle(impl_, id, nullptr);
}

/// The Problem::from_any form of a problem's source — what both the
/// journal payload and the durable cache entry store so a fresh process
/// can rebuild the graph. File and generator sources round-trip verbatim;
/// inline graphs are spilled once (atomic, digest-keyed) under
/// state_dir/graphs.
std::string Engine::durable_graph_source(const Problem& problem) {
  const std::string& src = problem.source();
  if (src.rfind("file:", 0) == 0) return src.substr(5);
  if (src.rfind("gen:", 0) == 0) return src.substr(4);
  const std::string path =
      impl_->state_dir + "/graphs/" +
      format("g%016llx.graph",
             static_cast<unsigned long long>(problem.digest()));
  if (!persist::file_exists(path)) {
    std::ostringstream out;
    write_chaco(problem.graph(), out);
    persist::atomic_write_file(path, out.str());
  }
  return path;
}

std::string Engine::build_payload(const std::string& graph_source,
                                  const SolveSpec& spec,
                                  const ResolvedSpec& resolved) {
  std::string p;
  p += "graph=" + graph_source + "\n";
  p += "method=" + spec.method + "\n";
  p += "k=" + std::to_string(spec.k) + "\n";
  // objective_token, not objective_name: the journal payload must hold the
  // spelling objective_from_name accepts, or recover() skips every job.
  p += "objective=" + std::string(objective_token(spec.objective)) + "\n";
  p += "seed=" + std::to_string(spec.seed) + "\n";
  // The RESOLVED step budget, so the resubmission is deterministic even
  // when the original spec derived its steps from budget_ms.
  p += "steps=" + std::to_string(resolved.steps) + "\n";
  p += format("budget_ms=%.17g\n", spec.budget_ms);
  p += "restarts=" + std::to_string(spec.restarts) + "\n";
  p += "priority=" + std::to_string(spec.priority) + "\n";
  p += format("queue_ttl_ms=%.17g\n", spec.queue_ttl_ms);
  p += "checkpoint_every_ms=" + std::to_string(spec.checkpoint_every_ms) +
       "\n";
  p += std::string("warm_start=") + (spec.warm_start ? "1" : "0") + "\n";
  p += std::string("evolve=") + (spec.evolve ? "1" : "0") + "\n";
  return p;
}

void Engine::recover() {
  if (impl_->journal == nullptr) return;
  // Finished results first, so a resubmission whose terminal record was
  // lost (crash between the cache persist and the journal append) is a
  // cache hit instead of a duplicate solve.
  impl_->load_persisted_cache();
  for (const std::string& payload : impl_->journal->recovered()) {
    try {
      const auto f = parse_payload(payload);
      const Problem problem = Problem::from_any(payload_field(f, "graph"));
      SolveSpec spec;
      spec.method = payload_field(f, "method");
      spec.k = std::stoi(payload_field(f, "k"));
      const auto objective = objective_from_name(payload_field(f, "objective"));
      FFP_CHECK(objective.has_value(), "unknown objective in journal payload");
      spec.objective = *objective;
      spec.seed = std::stoull(payload_field(f, "seed"));
      spec.steps = std::stoll(payload_field(f, "steps"));
      spec.budget_ms = std::stod(payload_field(f, "budget_ms"));
      spec.restarts = std::stoi(payload_field(f, "restarts"));
      // Older journals also carry a threads= line, the want of a removed
      // intra-run engine; it is ignored and the job replays serially.
      spec.priority = std::stoi(payload_field(f, "priority"));
      // Deliberately NOT restored: queue_ttl_ms. The original caller's
      // deadline died with the original process; the resubmission runs to
      // warm the durable cache for their retry.
      spec.checkpoint_every_ms =
          std::stoll(payload_field(f, "checkpoint_every_ms"));
      spec.warm_start = payload_field(f, "warm_start") == "1";
      // Tolerant of pre-evolve journals, which have no such field.
      const auto evolve_it = f.find("evolve");
      spec.evolve = evolve_it != f.end() && evolve_it->second == "1";
      submit(problem, spec);
      ++impl_->recovered_count;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ffp: recovery: skipping journaled job: %s\n",
                   e.what());
    }
  }
}

std::size_t Engine::recovered_jobs() const { return impl_->recovered_count; }

ffp::persist::Journal* Engine::journal() { return impl_->journal.get(); }

SolverResult Engine::solve(const Problem& problem, const SolveSpec& spec,
                           ImprovementFn on_improvement) {
  const SolveHandle handle =
      submit(problem, spec, std::move(on_improvement));
  const JobStatus status = handle.wait();
  if (status.state == JobState::Failed) {
    throw Error("solve failed: " + status.error);
  }
  if (status.result == nullptr) {
    throw Error("solve was cancelled before it ran");
  }
  return *status.result;
}

void Engine::drain() {
  impl_->scheduler->drain();
  // The scheduler's drain wakes on the terminal STATE; the runner thread
  // may still be inside its on_terminal hook. Handles finalize on observe
  // (poll/wait); drain has no handle, so finalize the stragglers here —
  // otherwise "drain, then resubmit" could miss a result that is still
  // being cached. The pending map is the exactly-once tie-breaker.
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard lock(impl_->mu);
    ids.reserve(impl_->pending.size());
    for (const auto& [id, entry] : impl_->pending) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    impl_->finalize(id, impl_->scheduler->status(id));
  }
}

CacheCounters Engine::cache_counters() const { return impl_->cache.counters(); }

evolve::ArchiveCounters Engine::archive_counters() const {
  return impl_->archive.counters();
}

std::optional<double> Engine::archive_best(std::uint64_t digest, int k,
                                           ObjectiveKind objective) const {
  return impl_->archive.best_value(
      evolve::PopulationKey{digest, k, objective});
}

bool Engine::archive_admit(std::uint64_t digest, int k,
                           ObjectiveKind objective,
                           std::span<const int> assignment, double value) {
  return impl_->archive.admit(evolve::PopulationKey{digest, k, objective},
                              assignment, value);
}

std::vector<std::pair<evolve::PopulationKey, evolve::Elite>>
Engine::archive_exports() const {
  return impl_->archive.best_elites();
}

JobScheduler& Engine::scheduler() { return *impl_->scheduler; }

ThreadBudget& Engine::budget() { return impl_->scheduler->budget(); }

Engine& Engine::shared() {
  static Engine engine{EngineOptions{}};
  return engine;
}

}  // namespace ffp::api
