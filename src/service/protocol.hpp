// The service wire protocol: line-delimited JSON, transport-agnostic.
// One request object per line in, one event object per line out — the same
// codec serves a TCP socket, a stdin/stdout pipe, and the in-process tests.
//
// Requests (all carry "op"; job ops carry the client-chosen string "id"):
//
//   {"op":"submit","id":"j1","graph_file":"mesh.graph","k":8,
//    "method":"fusion_fission","objective":"mcut","seed":7,"steps":20000,
//    "priority":0,"threads":2,"queue_ttl_ms":5000}
//   {"op":"submit","id":"j2","graph":{"n":4,"edges":[[0,1],[1,2],[2,3,2.5]]},
//    "k":2,"steps":1000}
//   {"op":"status","id":"j1"}
//   {"op":"cancel","id":"j1"}
//   {"op":"result","id":"j1"}          // blocks until the job is terminal
//   {"op":"shutdown"}
//   {"op":"migrate_elite","digest":"00c4f2...","k":8,"objective":"mcut",
//    "value":5.9,"assignment":[0,1,0,...]}   // shard-to-shard elite push
//
// Responses:
//
//   {"event":"ack","id":"j1"}
//   {"event":"error","id":"j1","message":"...","code":"bad_request",
//    "retryable":false}                                 // id "" if unknown
//   {"event":"error","id":"","message":"...","code":"overloaded",
//    "retryable":true,"retry_after_ms":250}             // shed / transient
//   {"event":"progress","id":"j1","seconds":0.41,"value":6.02}
//   {"event":"status","id":"j1","state":"running","seconds":0.5,
//    "best_value":6.1,"improvements":3}
//   {"event":"result","id":"j1","state":"done","value":5.9,"seconds":1.2,
//    "partition":[0,1,0,2,...]}
//   {"event":"bye"}
//   {"event":"migrate","admitted":true}      // migrate_elite outcome
//
// Input is UNTRUSTED: the parser is strict (unknown ops, unknown keys, bad
// types, out-of-range values, oversized ids and documents all fail with a
// clear message and never touch the scheduler), and inline graphs are
// range-checked edge by edge under the same IoLimits the hardened file
// readers enforce. Every parse failure throws ffp::Error; the session
// turns it into an `error` event instead of dying.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/result_cache.hpp"
#include "api/solve_spec.hpp"
#include "evolve/elite_archive.hpp"
#include "graph/io.hpp"
#include "service/job_scheduler.hpp"
#include "service/json.hpp"

namespace ffp {

struct ProtocolLimits {
  JsonLimits json;     ///< per-line document limits
  IoLimits graph;      ///< inline-graph and graph_file ceilings
  /// Extra ceiling on an inline graph's declared `n`. Unlike a file —
  /// where n lines must physically exist — an inline submit pays nothing
  /// for a huge declared n while Graph::from_edges allocates O(n), so a
  /// 70-byte request could otherwise demand gigabytes. Big graphs travel
  /// by file path. The effective inline cap is min(this, graph cap).
  std::int64_t max_inline_vertices = 1 << 22;
  std::size_t max_id_bytes = 128;
  std::int64_t max_steps = 1'000'000'000'000;  ///< 1e12 committed steps
  double max_budget_ms = 86'400'000;           ///< one day of wall clock
  unsigned max_threads = 4096;
  int max_restarts = 4096;
};

enum class RequestOp {
  Submit,
  Status,
  Cancel,
  Result,
  Shutdown,
  /// Shard-to-shard elite push (inter-shard evolution, KaFFPaE style):
  /// offers one foreign partition to this server's elite archive under the
  /// usual diversity-aware admission rules. Keyed on (digest, k,
  /// objective) — the digest is sent as a hex string because a 64-bit
  /// value does not survive a signed JSON integer.
  MigrateElite,
};

/// A validated request. For Submit, `spec` is the facade SolveSpec — the
/// protocol submits through api::Engine like every other entry point; the
/// graph arrives either inline (`inline_graph`) or by path (`graph_file`,
/// loaded by the host subject to its file policy).
struct Request {
  RequestOp op = RequestOp::Shutdown;
  std::string id;       ///< client job id (empty only for shutdown/status)
  api::SolveSpec spec;  ///< Submit only (MigrateElite reuses k/objective)
  std::string graph_file;                  ///< Submit, file variant
  std::shared_ptr<const Graph> inline_graph;  ///< Submit, inline variant
  // MigrateElite only:
  std::uint64_t digest = 0;         ///< graph content digest of the elite
  double migrate_value = 0;         ///< the elite's objective value
  std::shared_ptr<const std::vector<int>> migrate_assignment;
};

/// Parses and validates one request line. Throws ffp::Error on anything
/// malformed — syntax, unknown op, unknown key, bad type or range.
Request parse_request(std::string_view line, const ProtocolLimits& limits = {});

/// Serving-layer counters surfaced in status replies so the scale-out
/// path is observable: connection gauges, event-loop wakeups, overload
/// sheds, and elite migrations in either direction. Collected by
/// ServiceHost::serve_stats(); formatted when non-null.
struct ServeCounters {
  std::int64_t connections_open = 0;
  std::int64_t connections_total = 0;
  std::int64_t loop_wakeups = 0;  ///< epoll_wait returns
  std::int64_t sheds = 0;         ///< connections refused at max_clients
  std::int64_t migrations_sent = 0;
  std::int64_t migrations_received = 0;
};

// ---- response formatting (one line each, no trailing newline) ----------

std::string format_ack(std::string_view id);
/// `error` event carrying the taxonomy (service/errors.hpp): `code` names
/// the error class, `retryable` tells the client whether the identical
/// resubmission can succeed (it is idempotent either way — results are
/// cache-keyed on the spec), and `retry_after_ms` appears only when the
/// server attached a backoff hint (Overloaded sheds).
std::string format_error(std::string_view id, std::string_view message,
                         ErrCode code = ErrCode::BadRequest,
                         double retry_after_ms = -1);
std::string format_progress(std::string_view id, double seconds, double value);
/// `status` event: state, seconds, best value seen (absent before the
/// first improvement) and the improvement count. When `cache` is non-null
/// the event also carries the host's result-cache counters (hits, misses,
/// entries, capacity, evictions — everything an operator needs to size
/// --cache-entries); when `archive` is non-null, the elite-archive stats
/// (size, populations, admissions, snapshot hit rate); when
/// `archive_best` is non-null, the best archived value for THIS job's
/// population — every status reply doubles as a health probe.
std::string format_status(std::string_view id, const JobStatus& status,
                          const api::CacheCounters* cache = nullptr,
                          const evolve::ArchiveCounters* archive = nullptr,
                          const double* archive_best = nullptr,
                          const ServeCounters* serve = nullptr);
/// `result` event for a terminal job with a partition attached (Done, or
/// Cancelled mid-run). Failed/cancelled-before-running jobs get `error`.
std::string format_result(std::string_view id, const JobStatus& status);
/// The one response a terminal job gets from a `result` op, whichever side
/// renders it (the blocking wait() path and the event loop's async
/// delivery must emit byte-identical lines): `result` when a partition is
/// attached, the classified `error` event otherwise.
std::string format_terminal(std::string_view id, const JobStatus& status);
std::string format_bye();
/// `migrate` event answering a migrate_elite push.
std::string format_migrate(bool admitted);
/// The migrate_elite request line itself — shared by the EliteMigrator and
/// the tests so the wire spelling has exactly one producer.
std::string format_migrate_elite(const evolve::PopulationKey& key,
                                 double value, std::span<const int> parts);

/// What a relay needs of a response line: its event name and job id.
struct EventHead {
  std::string event;
  std::string id;  ///< empty when the event names no job (bye, migrate)
};

/// Reads the head from the prefix every format_* above writes,
/// {"event":"…"[,"id":"…"], without parsing the rest — a result line
/// carries one entry per vertex. Throws ffp::Error when the line does not
/// start that way.
EventHead read_event_head(std::string_view line);

}  // namespace ffp
