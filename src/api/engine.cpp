#include "api/engine.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "evolve/plan.hpp"
#include "persist/checkpoint.hpp"
#include "persist/journal.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace ffp::api {

namespace {

/// On-disk cache entry format version (persist::read_records framing).
constexpr std::uint32_t kCacheEntryVersion = 1;

/// Deterministic file name for one persisted cache entry: any process
/// maps the same key to the same file (the eviction hook relies on it).
std::string cache_entry_name(const std::string& key) {
  return format("e-%016llx.rec",
                static_cast<unsigned long long>(fnv1a(key, kFnvBasisShort)));
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

/// The engine's internals: the scheduler and what its jobs' hooks feed.
struct Engine::State {
  explicit State(const EngineOptions& options)
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
    try {
      persist::write_records_atomic(
          state_dir + "/cache/" + cache_entry_name(key), kCacheEntryVersion,
          {encode_partition_record(
              {{"key", key},
               {"graph", source},
               {"value", real_text(result->best_value)},
               {"seconds", real_text(result->seconds)}},
              result->best.assignment())});
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
    const PartitionRecord entry = decode_partition_record(
        read.records[0], {"key", "graph", "value", "seconds"});
    const std::string& key = entry.text("key");
    const Problem problem = Problem::from_any(entry.text("graph"));
    FFP_CHECK(entry.parts.size() == static_cast<std::size_t>(
                                        problem.graph().num_vertices()),
              "cache entry size mismatch");
    // The key embeds the graph digest; a source file that changed since
    // the entry was written no longer matches and the entry is stale.
    const std::string expect =
        format("g%016llx|", static_cast<unsigned long long>(problem.digest()));
    FFP_CHECK(key.rfind(expect, 0) == 0, "cache entry digest mismatch");
    // The key's `|k=<k>|` field bounds the part ids: a Partition is sized
    // by its largest id.
    const std::size_t at = key.find("|k=");
    FFP_CHECK(at != std::string::npos, "cache entry key names no k");
    const std::string_view k_text =
        std::string_view(key).substr(at + 3, key.find('|', at + 3) - at - 3);
    const auto k = parse_int(k_text);
    FFP_CHECK(k.has_value() && *k >= 1, "cache entry key has a bad k");
    entry.check_parts(*k);
    SolverResult res{Partition::from_assignment(problem.graph(), entry.parts),
                     entry.real("value"), entry.real("seconds"), {}};
    cache.put(key, share_result(std::move(res), problem.share()));
  }

  /// A job's terminal-path step 1 (job_scheduler.hpp): a Done result goes
  /// into the cache, the durable cache and the archive before the job
  /// reads terminal, so a waiter woken by Done finds it cached.
  void on_finish(const std::string& key, const std::string& source,
                 const evolve::PopulationKey& population, bool feed_archive,
                 const JobStatus& status) {
    if (status.state != JobState::Done) return;
    cache.put(key, status.result);
    persist_cache_entry(key, source, status.result.get());
    if (feed_archive) {
      // Cross-job learning: every finished partition is offered to its
      // population (exact duplicates are rejected there, so the evolve
      // per-restart feedback and this winner feedback never double up).
      archive.admit(population, status.result->best.assignment(),
                    status.result->best_value);
    }
  }

  ResultCache cache;
  const std::string state_dir;  ///< empty: persistence off
  std::unique_ptr<persist::Journal> journal;
  std::size_t recovered_count = 0;
  /// Declared before the scheduler: job hooks and portfolio feedback
  /// closures hold raw pointers into this state.
  evolve::EliteArchive archive;
  /// Last member: destroyed first, and it finishes every job (hooks
  /// included) before it dies, so no hook can fire into a dead State.
  std::unique_ptr<JobScheduler> scheduler;
};

JobStatus SolveHandle::poll() const {
  FFP_CHECK(valid(), "poll on an empty SolveHandle");
  return cached() ? *immediate_ : job_->status();
}

JobStatus SolveHandle::wait() const {
  FFP_CHECK(valid(), "wait on an empty SolveHandle");
  return cached() ? *immediate_ : job_->wait();
}

std::optional<JobStatus> SolveHandle::wait_for(double timeout_ms) const {
  FFP_CHECK(valid(), "wait_for on an empty SolveHandle");
  if (cached()) return *immediate_;
  return job_->wait_for(timeout_ms);
}

bool SolveHandle::cancel() const {
  FFP_CHECK(valid(), "cancel on an empty SolveHandle");
  return !cached() && job_->cancel();
}

Engine::Engine(EngineOptions options)
    : impl_(std::make_unique<State>(options)) {
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
  const VertexId n = problem.graph().num_vertices();
  if (spec.k > n) {
    throw Error(format("k = %d exceeds the graph's %d vertices", spec.k, n));
  }

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
      return SolveHandle(std::shared_ptr<const JobStatus>(std::move(status)));
    }
  }

  // The one internal request: built here, copied (never re-derived) by the
  // scheduler and the portfolio. A resolved step budget of 0 means the
  // solve runs on the wall clock.
  JobSpec job;
  job.graph = problem.share();
  job.solver = resolved.solver;  // spec resolved once, reused by the runner
  job.request.k = spec.k;
  job.request.objective = spec.objective;
  job.request.seed = spec.seed;
  job.request.stop = resolved.steps > 0
                         ? StopCondition::after_steps(resolved.steps)
                         : StopCondition::after_millis(spec.budget_ms);
  job.restarts = spec.restarts;
  job.priority = spec.priority;
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
    // Raw pointer: the archive outlives the scheduler by member order.
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
      RunHooks& hooks = job.request.hooks;
      if (spec.checkpoint_every_ms > 0) {
        hooks.checkpoint_every_ms = spec.checkpoint_every_ms;
        hooks.checkpoint_sink = [ckpath, k = spec.k](
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
          hooks.warm_start = std::make_shared<std::vector<int>>(
              std::move(ck->assignment));
          hooks.warm_start_value = ck->value;
        }
        // No (usable) checkpoint: cold start, by contract.
      }
    }
  }

  job.on_improvement = std::move(on_improvement);
  // Raw pointer: the scheduler is the state's last member and finishes
  // every job before the rest of the state dies.
  job.on_finish = [state = impl_.get(), key = std::move(key),
                   source = std::move(graph_source), population,
                   feed_archive](const JobStatus& status) {
    state->on_finish(key, source, population, feed_archive, status);
  };
  job.on_terminal = std::move(on_terminal);
  return SolveHandle(impl_->scheduler->submit(std::move(job)));
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

void Engine::drain() { impl_->scheduler->drain(); }

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

Engine& Engine::shared() {
  static Engine engine{EngineOptions{}};
  return engine;
}

}  // namespace ffp::api
