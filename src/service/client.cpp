#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "service/json.hpp"
#include "service/net.hpp"
#include "util/rng.hpp"

namespace ffp {

double RetryPolicy::backoff_ms(int attempt) const {
  FFP_CHECK(attempt >= 1, "backoff_ms needs attempt >= 1");
  double cap = base_ms;
  for (int i = 1; i < attempt && cap < max_ms; ++i) cap *= 2;
  cap = std::min(cap, max_ms);
  // Full jitter over the top half of the cap, deterministic in
  // (seed, attempt): herds retry spread out, tests replay exactly.
  std::uint64_t state =
      seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt));
  const double u =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return cap * 0.5 + u * cap * 0.5;
}

namespace {

/// One parsed response line — just the routing fields; the raw line is
/// what callers keep.
struct Event {
  std::string event;
  std::string id;
  ErrCode code = ErrCode::None;
  double retry_after_ms = -1;
  std::string message;
};

/// Parses a response line. A peer speaking something other than the
/// protocol is indistinguishable from a torn connection — both throw
/// ServiceError(ConnLost) and end the attempt.
Event parse_event(const std::string& line) {
  JsonValue root;
  try {
    root = JsonValue::parse(line, response_json_limits());
  } catch (const Error& e) {
    throw ServiceError(ErrCode::ConnLost,
                       std::string("unparseable response line: ") + e.what());
  }
  const JsonValue* ev = root.is_object() ? root.find("event") : nullptr;
  if (ev == nullptr || !ev->is_string()) {
    throw ServiceError(ErrCode::ConnLost, "response line has no 'event'");
  }
  Event out;
  out.event = ev->as_string();
  if (const JsonValue* id = root.find("id"); id != nullptr && id->is_string()) {
    out.id = id->as_string();
  }
  if (const JsonValue* c = root.find("code"); c != nullptr && c->is_string()) {
    out.code = err_from_name(c->as_string());
  }
  if (const JsonValue* r = root.find("retry_after_ms");
      r != nullptr && r->is_number()) {
    out.retry_after_ms = r->as_number();
  }
  if (const JsonValue* m = root.find("message");
      m != nullptr && m->is_string()) {
    out.message = m->as_string();
  }
  return out;
}

/// Per-job progress through the retry loop.
struct JobProgress {
  const ClientJob* job = nullptr;
  bool terminal = false;
  bool acked = false;  ///< within the current attempt only
  ClientResult result;
};

struct AttemptAborted {
  ErrCode code;
  double retry_after_ms;
  std::string why;
};

}  // namespace

std::vector<ClientResult> ServiceClient::run(
    const std::vector<ClientJob>& jobs) {
  {
    std::set<std::string> ids;
    for (const ClientJob& job : jobs) {
      FFP_CHECK(!job.id.empty(), "client job needs a non-empty id");
      FFP_CHECK(ids.insert(job.id).second, "duplicate client job id '",
                job.id, "'");
    }
  }

  std::vector<JobProgress> states(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    states[i].job = &jobs[i];
    states[i].result.id = jobs[i].id;
  }

  const RetryPolicy& policy = options_.retry;
  FFP_CHECK(policy.max_attempts >= 1, "RetryPolicy needs max_attempts >= 1");

  // Reads lines (echoing through on_line) until the named job's next
  // ack/error/result event; connection-level error events (empty id) and
  // torn/garbled/expired reads end the whole attempt via ServiceError.
  const auto await = [this](LineReader& reader, const std::string& id,
                            std::string* raw) -> Event {
    std::string line;
    for (;;) {
      if (!reader.next(line)) {
        throw ServiceError(ErrCode::ConnLost,
                           "server closed the connection awaiting '" + id +
                               "'");
      }
      if (options_.on_line) options_.on_line(line);
      Event ev = parse_event(line);
      if (ev.event == "error" && ev.id.empty()) {
        // Not about any job: the connection itself was rejected (shed,
        // idle-reaped, draining). Carry the code and hint up.
        throw ServiceError(ev.code == ErrCode::None ? ErrCode::ConnLost
                                                    : ev.code,
                           "connection rejected: " + ev.message,
                           ev.retry_after_ms);
      }
      if (ev.id != id) continue;  // progress/status of another job
      if (ev.event == "ack" || ev.event == "error" || ev.event == "result") {
        if (raw != nullptr) *raw = line;
        return ev;
      }
    }
  };

  double hint_ms = -1;
  std::string last_why = "never attempted";
  ErrCode last_code = ErrCode::ConnLost;

  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    hint_ms = -1;
    for (JobProgress& s : states) s.acked = false;
    try {
      FdHandle conn = tcp_connect(options_.port);
      LineReader reader(conn);
      reader.set_timeout_ms(options_.io_timeout_ms);

      // Phase 1: (re)submit everything unfinished. Resubmission is
      // idempotent — a job that actually completed last attempt comes
      // back as a result-cache hit.
      for (JobProgress& s : states) {
        if (s.terminal) continue;
        write_line(conn, s.job->submit_line, options_.io_timeout_ms);
        const Event ev = await(reader, s.job->id, nullptr);
        if (ev.event == "ack") {
          s.acked = true;
          continue;
        }
        if (err_retryable(ev.code)) {
          // Shed or draining: leave pending for the next attempt.
          hint_ms = std::max(hint_ms, ev.retry_after_ms);
          last_code = ev.code;
          last_why = ev.message;
          continue;
        }
        s.terminal = true;  // fatal: the request itself is wrong
        s.result.ok = false;
        s.result.code = ev.code == ErrCode::None ? ErrCode::BadRequest
                                                 : ev.code;
        s.result.error = ev.message;
      }

      // Phase 2: collect results for everything acked this attempt.
      for (JobProgress& s : states) {
        if (s.terminal || !s.acked) continue;
        std::string request = "{\"op\":\"result\",\"id\":";
        json_append_quoted(request, s.job->id);
        request += "}";
        write_line(conn, request, options_.io_timeout_ms);
        std::string raw;
        const Event ev = await(reader, s.job->id, &raw);
        if (ev.event == "result") {
          s.terminal = true;
          s.result.ok = true;
          s.result.result_line = std::move(raw);
          continue;
        }
        if (err_retryable(ev.code)) {
          // e.g. queue_expired: the job died waiting; resubmit.
          hint_ms = std::max(hint_ms, ev.retry_after_ms);
          last_code = ev.code;
          last_why = ev.message;
          continue;
        }
        s.terminal = true;
        s.result.ok = false;
        s.result.code = ev.code == ErrCode::None ? ErrCode::JobFailed
                                                 : ev.code;
        s.result.error = ev.message;
      }
    } catch (const ServiceError& e) {
      hint_ms = std::max(hint_ms, e.retry_after_ms());
      last_code = e.code();
      last_why = e.what();
    } catch (const Error& e) {
      // tcp_connect refusal and kin: the server may be restarting.
      last_code = ErrCode::ConnLost;
      last_why = e.what();
    }

    const bool done = std::all_of(states.begin(), states.end(),
                                  [](const JobProgress& s) {
                                    return s.terminal;
                                  });
    if (done || attempt == policy.max_attempts) break;

    const double wait = std::max(policy.backoff_ms(attempt), hint_ms);
    if (options_.on_backoff) options_.on_backoff(attempt, wait, last_why);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait));
  }

  std::vector<ClientResult> out;
  out.reserve(states.size());
  for (JobProgress& s : states) {
    if (!s.terminal) {
      s.result.ok = false;
      s.result.code = last_code;
      s.result.error = "retries exhausted (" +
                       std::to_string(policy.max_attempts) +
                       " attempts); last failure: " + last_why;
    }
    out.push_back(std::move(s.result));
  }
  return out;
}

}  // namespace ffp
