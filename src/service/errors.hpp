// Structured error taxonomy for the service stack: every failure a client
// can observe carries a machine-readable code and a retryable verdict, so
// `ffp_client` (and any other caller) can decide retry-with-backoff vs
// give-up without parsing prose. The codes travel on the wire in `error`
// events ({"code":"overloaded","retryable":true,...}) and internally as
// ServiceError, a subclass of ffp::Error — call sites that only know about
// Error keep working, call sites that care catch ServiceError first.
//
// Retryable means "the identical request may succeed later": capacity and
// deadline failures qualify because the service's determinism contract
// makes resubmission idempotent (a repeat of a deterministic spec is a
// result-cache hit, not duplicated work). Fatal means the request itself
// is wrong (malformed, unknown id, disabled op) or the work is genuinely
// dead (solver failure, caller-initiated cancel) — retrying reproduces the
// same failure.
#pragma once

#include <string>
#include <string_view>

#include "util/check.hpp"

namespace ffp {

enum class ErrCode {
  None = 0,      ///< no code attached (e.g. a non-failed JobStatus)
  // ---- fatal: retrying the identical request reproduces the failure ----
  BadRequest,    ///< malformed or invalid request
  UnknownJob,    ///< job id not known to this session
  Forbidden,     ///< op disabled by server policy (e.g. remote shutdown)
  JobFailed,     ///< the solver itself failed
  Cancelled,     ///< job cancelled before it produced a result
  Internal,      ///< unexpected server-side failure
  // ---- retryable: the identical request may succeed later --------------
  Overloaded,    ///< queue or connection capacity exhausted
  QueueExpired,  ///< job spent longer queued than its TTL allowed
  Timeout,       ///< a read/write/idle deadline expired
  ConnLost,      ///< connection dropped, reset, or torn mid-message
  ShuttingDown,  ///< server is draining; try again (or another replica)
};

/// True for the codes a client should retry with backoff.
bool err_retryable(ErrCode code);

/// The retry-after hint (ms) of every Overloaded shed: a full job queue
/// and a connection beyond the event loop's max_clients alike.
inline constexpr double kOverloadRetryAfterMs = 250;

/// Stable wire name ("overloaded", "conn_lost", ...).
std::string_view err_name(ErrCode code);

/// Reverse lookup for clients parsing error events; None on unknown names
/// (never throws — the wire is untrusted).
ErrCode err_from_name(std::string_view name);

/// An Error with a taxonomy code and an optional server-supplied
/// retry-after hint (milliseconds; < 0 means no hint).
class ServiceError : public Error {
 public:
  ServiceError(ErrCode code, const std::string& what,
               double retry_after_ms = -1)
      : Error(what), code_(code), retry_after_ms_(retry_after_ms) {}

  ErrCode code() const { return code_; }
  bool retryable() const { return err_retryable(code_); }
  double retry_after_ms() const { return retry_after_ms_; }

 private:
  ErrCode code_;
  double retry_after_ms_;
};

}  // namespace ffp
