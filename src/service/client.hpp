// ServiceClient — the resilient client side of the service protocol, as a
// library (ffp_client's graph mode is a thin wrapper; the chaos tests
// drive it in-process against the event-loop server and the router). It
// owns the retry loop the protocol's error taxonomy exists for:
//
//   * Fatal error events (bad_request, job_failed, ...) fail the one job
//     they name, permanently.
//   * Retryable error events (overloaded, queue_expired, shutting_down)
//     put the job back in the pending set for the next attempt, honoring
//     any server-supplied retry_after_ms hint.
//   * Connection-level failures (conn_lost, timeout, refused connects,
//     garbage lines) end the attempt: every non-terminal job goes back to
//     pending, the client backs off and reconnects.
//
// Resubmission is safe BY CONSTRUCTION, not by protocol bookkeeping: a
// deterministic spec resubmitted under the same id is answered from the
// server's result cache (same graph digest, same canonical spec — see
// api::SolveSpec::cache_key), so a retry after a torn connection costs a
// lookup, never a duplicate solve, and always yields byte-identical
// results. This is what lets the retry loop be aggressive.
//
// Backoff is deterministic: full jitter in [cap/2, cap] with
// cap = min(max_ms, base_ms * 2^(attempt-1)), drawn from
// splitmix64(seed ^ attempt) — so a given (--retry-seed, attempt) pair
// always waits the same time, and tests replay schedules exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/errors.hpp"

namespace ffp {

struct RetryPolicy {
  int max_attempts = 5;   ///< total connection attempts (1 = no retry)
  double base_ms = 100;   ///< first-retry backoff cap
  double max_ms = 5000;   ///< backoff cap ceiling
  std::uint64_t seed = 1; ///< jitter seed (deterministic schedules)

  /// The wait before attempt `attempt + 1` (attempt >= 1): full jitter in
  /// [cap/2, cap], deterministic in (seed, attempt).
  double backoff_ms(int attempt) const;
};

/// One job the client runs to completion: the client-chosen id plus the
/// full submit request line (which must carry the same id).
struct ClientJob {
  std::string id;
  std::string submit_line;
};

/// Terminal outcome of one job after all retries.
struct ClientResult {
  std::string id;
  bool ok = false;
  std::string result_line;  ///< raw `result` event JSON (ok only)
  ErrCode code = ErrCode::None;  ///< failure class (!ok only)
  std::string error;             ///< failure message (!ok only)
};

struct ServiceClientOptions {
  int port = 0;  ///< ffp_serve port on 127.0.0.1
  RetryPolicy retry;
  /// Per-read deadline while awaiting a response line; <= 0 blocks
  /// forever. Expiry counts as a connection failure (retry). Lines are
  /// bounded by the response ceiling (service/net.hpp).
  double io_timeout_ms = 0;
  /// Observation hooks (both optional): every received line, and every
  /// backoff the retry loop takes (ffp_client logs; tests assert).
  std::function<void(const std::string& line)> on_line;
  std::function<void(int attempt, double wait_ms, const std::string& why)>
      on_backoff;
};

class ServiceClient {
 public:
  explicit ServiceClient(ServiceClientOptions options)
      : options_(std::move(options)) {}

  /// Runs every job to a terminal outcome — reconnecting, backing off and
  /// resubmitting through retryable failures — and returns one result per
  /// job, in input order. Only throws on caller misuse (duplicate ids);
  /// server and network failures are returned, not thrown.
  std::vector<ClientResult> run(const std::vector<ClientJob>& jobs);

 private:
  ServiceClientOptions options_;
};

}  // namespace ffp
