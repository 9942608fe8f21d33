// The protocol layer over the api facade: ServiceHost is the shared server
// state — ONE api::Engine (scheduler + thread budget + result cache) plus a
// weak per-path graph cache — and ServiceSession is one client's protocol
// view of it. ffp_serve runs a session on each event-loop connection (or
// around stdin/stdout in pipe mode); the tests drive sessions directly with
// no transport at all. Every session submits through the same engine, so N
// concurrent connections share runners, budget, and cache — the
// KaFFPaE-style single-submission-point the distributed levers need.
//
// The session owns only its client-id → job map and its emit lock:
// responses to commands are emitted synchronously from handle_line();
// `progress` events are emitted from engine runner threads as improvements
// happen (when streaming is on), serialized with everything else through
// the session's emit lock — the callback itself never needs to be
// thread-safe.
//
// Untrusted-input policy: every parse or validation failure becomes an
// `error` event (the session never throws, never dies); graph files are
// read through the hardened readers under the host's IoLimits, and
// `allow_files = false` turns graph_file submissions off entirely. Graphs
// named by the same path are parsed once and shared across jobs and
// sessions (weak cache), which is what makes a burst of jobs on one mesh
// cheap.
//
// Lifetime: a session destroyed with jobs still pending cancels them and
// waits — but only up to SessionPolicy::teardown_wait_ms (the event loop
// does not wait at all). A job that ignores its cancel flag past that
// deadline is abandoned (logged to stderr) rather than holding the
// transport thread hostage; the emit state
// is a shared guard the streaming closures hold, so an abandoned job's
// progress events drop silently instead of calling into a dead session. A
// clean EOF calls drain() first, which lets jobs finish — so piped batch
// runs still get their results while a vanished TCP client stops burning
// runners.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"

namespace ffp {

/// Process-wide serving counters (protocol.hpp ServeCounters is the wire
/// rendering): the event loop and the EliteMigrator both update the one
/// instance their ServiceHost owns, so a status probe on any connection
/// sees the whole server.
class ServeStats {
 public:
  std::atomic<std::int64_t> connections_open{0};
  std::atomic<std::int64_t> connections_total{0};
  std::atomic<std::int64_t> loop_wakeups{0};
  std::atomic<std::int64_t> sheds{0};
  std::atomic<std::int64_t> migrations_sent{0};
  std::atomic<std::int64_t> migrations_received{0};

  ServeCounters snapshot() const {
    ServeCounters out;
    out.connections_open = connections_open.load(std::memory_order_relaxed);
    out.connections_total = connections_total.load(std::memory_order_relaxed);
    out.loop_wakeups = loop_wakeups.load(std::memory_order_relaxed);
    out.sheds = sheds.load(std::memory_order_relaxed);
    out.migrations_sent = migrations_sent.load(std::memory_order_relaxed);
    out.migrations_received =
        migrations_received.load(std::memory_order_relaxed);
    return out;
  }
};

struct ServiceOptions {
  unsigned runners = 1;  ///< concurrent jobs across ALL sessions
  /// Worker governor shared with everything else in the process; null uses
  /// ThreadBudget::process().
  ThreadBudget* budget = nullptr;
  /// Result-cache entries (api::ResultCache); 0 disables. Deterministic
  /// repeat submissions — same graph digest, same canonical spec — are
  /// answered from the cache without a solve.
  std::size_t cache_capacity = 64;
  bool stream_progress = false;  ///< emit `progress` events as they happen
  bool allow_files = true;       ///< permit graph_file submissions
  /// Bounded submit queue across ALL sessions: beyond this many queued
  /// jobs, submits are shed with a structured Overloaded error (and a
  /// retry-after hint) instead of queueing without bound. 0 = unbounded.
  std::size_t max_queued = 0;
  /// Durable-state directory, forwarded to api::EngineOptions::state_dir
  /// (see there for the layout and recovery semantics). Empty keeps the
  /// historical fully-in-memory server.
  std::string state_dir;
  /// Elite-archive capacity per (graph digest, k, objective) population,
  /// forwarded to api::EngineOptions::evolve_capacity. 0 turns the archive
  /// (and `"evolve":true` submissions) off.
  std::size_t evolve_capacity = 8;
  ProtocolLimits limits;
};

/// Shared server state: the engine every session submits through plus the
/// per-path graph cache. Construct one per daemon, then one ServiceSession
/// per connection.
class ServiceHost {
 public:
  explicit ServiceHost(ServiceOptions options);

  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  api::Engine& engine() { return engine_; }
  const ServiceOptions& options() const { return options_; }
  ServeStats& serve_stats() { return serve_stats_; }

  /// Resolves a submit's graph: inline graphs pass through; file graphs go
  /// through the hardened reader under the host's limits and the weak
  /// path cache (subject to allow_files). Throws ffp::Error on policy or
  /// read failures.
  api::Problem load_problem(const Request& request);

 private:
  /// Weak graph plus its memoized content digest, so repeat submissions of
  /// a cached path never rescan the CSR arrays (the digest is the cache
  /// key half and would otherwise be recomputed per request).
  struct CachedGraph {
    std::weak_ptr<const Graph> graph;
    std::uint64_t digest = 0;
  };

  ServiceOptions options_;
  std::mutex mu_;  ///< graph cache
  std::map<std::string, CachedGraph> graph_cache_;
  ServeStats serve_stats_;
  api::Engine engine_;
};

/// Per-connection policy knobs — what THIS transport may do, as opposed to
/// ServiceOptions (what the host allows anyone). ffp_serve grants
/// shutdown to its stdio pipe (the operator's own terminal) but gates it
/// on --allow-remote-shutdown for TCP peers.
struct SessionPolicy {
  /// Whether {"op":"shutdown"} is honored. When false the request gets a
  /// structured Forbidden error and the connection stays up.
  bool allow_shutdown = true;
  /// Teardown deadline: how long the destructor waits (total, across all
  /// of the session's jobs) after cancelling them before abandoning the
  /// stragglers. 0 waits forever (trusted in-process sessions); < 0 does
  /// not wait at all — cancel and abandon immediately, for the event loop,
  /// which tears sessions down on its one thread (the server's drain
  /// bounds the stragglers instead).
  double teardown_wait_ms = 5000;
  /// Async result delivery: `result` replies are emitted by the engine's
  /// terminal callback instead of a blocking wait() in handle_line — the
  /// event loop multiplexes thousands of connections on one thread and
  /// can afford neither the block nor a thread per waiter. The wait()
  /// path (pipe mode, in-process callers) and the callback render
  /// byte-identical lines (format_terminal); which side emits is settled
  /// by a claim set, so every result op gets exactly one reply either way.
  bool async_results = false;
};

class ServiceSession final : public LineHandler {
 public:
  using Emit = std::function<void(const std::string& line)>;

  ServiceSession(ServiceHost& host, Emit emit, SessionPolicy policy = {});
  /// Cancels this session's unfinished jobs and waits up to
  /// policy.teardown_wait_ms for them — call drain() first for
  /// let-them-finish semantics. Jobs still running at the deadline are
  /// abandoned (their streaming events drop; the scheduler finishes them).
  ~ServiceSession() override;

  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  /// Handles one request line, emitting the response line(s). Returns
  /// false when the line was a shutdown request — the transport loop
  /// should stop reading. Never throws on bad input; `error` events carry
  /// the diagnosis instead.
  bool handle_line(std::string_view line) override;

  /// Blocks until every job this session submitted is terminal.
  void drain();

  /// True while a `result` op awaits async delivery.
  bool owes_reply() override;

  /// Unfinished (non-terminal) jobs plus unclaimed result interests — the
  /// event loop uses this to decide when a read-closed connection has
  /// nothing left to say and can be reaped.
  std::size_t pending_work() override;

  ServiceHost& host() { return host_; }

 private:
  /// The emit half of the session, shared with every streaming closure it
  /// spawned: the mutex serializes command responses with progress events,
  /// and `alive` is flipped off at teardown so a closure owned by an
  /// abandoned job drops its events instead of calling a dead sink.
  struct EmitState {
    std::mutex mu;
    Emit sink;
    bool alive = true;
  };
  static void emit_to(const std::shared_ptr<EmitState>& state,
                      const std::string& line);

  /// One client id's job: its handle plus its elite-archive population,
  /// recorded at submit so a later status can report archive_best for
  /// exactly this job's (digest, k, objective) without re-loading the
  /// graph.
  struct SessionJob {
    api::SolveHandle handle;
    evolve::PopulationKey population;
  };

  void emit(const std::string& line) { emit_to(emit_, line); }
  SessionJob lookup(const std::string& id);
  std::vector<api::SolveHandle> handles();

  /// Async-result bookkeeping, shared with every terminal callback this
  /// session registered: `wanted` holds the client ids whose result op is
  /// awaiting delivery. Whoever erases an id (the callback or a poll that
  /// found the job already terminal) owns the emit — exactly one side
  /// renders the reply. Outlives the session like EmitState does.
  struct AsyncWaits {
    std::mutex mu;
    std::set<std::string> wanted;
  };

  ServiceHost& host_;
  SessionPolicy policy_;
  std::shared_ptr<EmitState> emit_;
  std::shared_ptr<AsyncWaits> waits_;

  std::mutex mu_;  ///< jobs_
  std::map<std::string, SessionJob> jobs_;  ///< client id → job
};

}  // namespace ffp
