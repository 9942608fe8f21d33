#include "service/protocol.hpp"

#include <cmath>
#include <set>

#include "util/strings.hpp"

namespace ffp {

namespace {

[[noreturn]] void reject(const std::string& msg) {
  throw Error("bad request: " + msg);
}

/// Every key the submit op understands; anything else is a typo and fails
/// loudly, same policy as the solver registry's option parsing.
const std::set<std::string_view>& submit_keys() {
  static const std::set<std::string_view> keys = {
      "op",        "id",    "graph_file", "graph",     "method",   "k",
      "objective", "seed",  "steps",      "budget_ms", "priority",
      "threads",   "restarts", "queue_ttl_ms", "checkpoint_every_ms",
      "warm_start", "evolve"};
  return keys;
}

std::string parse_id(const JsonValue& root, const ProtocolLimits& limits) {
  const JsonValue* id = root.find("id");
  if (id == nullptr) reject("missing 'id'");
  if (!id->is_string()) reject("'id' must be a string");
  const std::string& value = id->as_string();
  if (value.empty()) reject("'id' must not be empty");
  if (value.size() > limits.max_id_bytes) {
    reject("'id' longer than " + std::to_string(limits.max_id_bytes) +
           " bytes");
  }
  return value;
}

std::int64_t int_field(const JsonValue& root, std::string_view key,
                       std::int64_t fallback, std::int64_t lo,
                       std::int64_t hi) {
  const JsonValue* v = root.find(key);
  if (v == nullptr) return fallback;
  std::int64_t value = 0;
  try {
    value = v->as_int();
  } catch (const Error&) {
    reject("'" + std::string(key) + "' must be an integer");
  }
  if (value < lo || value > hi) {
    reject("'" + std::string(key) + "' out of range [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]");
  }
  return value;
}

std::shared_ptr<const Graph> parse_inline_graph(const JsonValue& spec,
                                                const ProtocolLimits& limits) {
  if (!spec.is_object()) reject("'graph' must be an object");
  for (const auto& [key, unused] : spec.as_object()) {
    (void)unused;
    if (key != "n" && key != "edges") {
      reject("unknown key '" + key + "' in 'graph'");
    }
  }
  // The same resolved ceilings the hardened file readers enforce — so the
  // inline and file paths can never diverge — plus the inline-only vertex
  // cap (see ProtocolLimits: a declared n costs the sender nothing but
  // costs the server O(n) allocation).
  const std::int64_t vcap =
      std::min(limits.graph.vertex_cap(), limits.max_inline_vertices);
  const std::int64_t ecap = limits.graph.edge_cap();

  const JsonValue* edges_v = spec.find("edges");
  if (edges_v == nullptr || !edges_v->is_array()) {
    reject("'graph' needs an 'edges' array");
  }
  const auto& raw = edges_v->as_array();
  if (static_cast<std::int64_t>(raw.size()) > ecap) {
    reject("'graph.edges' exceeds the edge limit " + std::to_string(ecap));
  }

  std::int64_t n = int_field(spec, "n", 0, 0, vcap);
  std::vector<WeightedEdge> edges;
  edges.reserve(raw.size());
  VertexId max_v = -1;
  for (const JsonValue& e : raw) {
    if (!e.is_array() || (e.as_array().size() != 2 && e.as_array().size() != 3)) {
      reject("each edge must be [u, v] or [u, v, w]");
    }
    const auto& t = e.as_array();
    std::int64_t u = 0;
    std::int64_t v = 0;
    try {
      u = t[0].as_int();
      v = t[1].as_int();
    } catch (const Error&) {
      reject("edge endpoints must be integers");
    }
    if (u < 0 || v < 0 || u >= vcap || v >= vcap) {
      reject("edge endpoint out of range");
    }
    if (u == v) reject("self loop on vertex " + std::to_string(u));
    double w = 1.0;
    if (t.size() == 3) {
      if (!t[2].is_number()) reject("edge weight must be a number");
      w = t[2].as_number();
      if (!std::isfinite(w) || w < 0) {
        reject("edge weight must be finite and >= 0");
      }
    }
    edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v), w});
    max_v = std::max(max_v, static_cast<VertexId>(std::max(u, v)));
  }
  if (n == 0) n = static_cast<std::int64_t>(max_v) + 1;
  if (n <= 0) reject("'graph' is empty");
  if (max_v >= n) {
    reject("edge endpoint " + std::to_string(max_v) +
           " exceeds declared n = " + std::to_string(n));
  }
  // from_edges re-checks every invariant; wrap its Error as a bad request.
  try {
    return std::make_shared<const Graph>(
        Graph::from_edges(static_cast<VertexId>(n), edges));
  } catch (const Error& e) {
    reject(e.what());
  }
}

Request parse_submit(const JsonValue& root, const ProtocolLimits& limits) {
  Request req;
  req.op = RequestOp::Submit;
  req.id = parse_id(root, limits);
  for (const auto& [key, unused] : root.as_object()) {
    (void)unused;
    if (submit_keys().count(key) == 0) {
      reject("unknown key '" + key + "' in submit");
    }
  }

  const JsonValue* file = root.find("graph_file");
  const JsonValue* inline_g = root.find("graph");
  if ((file != nullptr) == (inline_g != nullptr)) {
    reject("submit needs exactly one of 'graph_file' or 'graph'");
  }
  if (file != nullptr) {
    if (!file->is_string() || file->as_string().empty()) {
      reject("'graph_file' must be a non-empty string");
    }
    req.graph_file = file->as_string();
  } else {
    req.inline_graph = parse_inline_graph(*inline_g, limits);
  }

  if (const JsonValue* m = root.find("method"); m != nullptr) {
    if (!m->is_string() || m->as_string().empty()) {
      reject("'method' must be a non-empty string");
    }
    req.spec.method = m->as_string();
  }
  if (const JsonValue* o = root.find("objective"); o != nullptr) {
    if (!o->is_string()) reject("'objective' must be a string");
    const auto kind = objective_from_name(o->as_string());
    if (!kind) {
      reject("unknown objective '" + o->as_string() +
             "' (expected cut|ncut|mcut|rcut)");
    }
    req.spec.objective = *kind;
  }
  req.spec.k = static_cast<int>(int_field(root, "k", 2, 1, 1 << 24));
  req.spec.seed = static_cast<std::uint64_t>(int_field(
      root, "seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  req.spec.steps =
      int_field(root, "steps", 0, 0, limits.max_steps);
  req.spec.priority = static_cast<int>(
      int_field(root, "priority", 0, -1'000'000, 1'000'000));
  req.spec.threads = static_cast<unsigned>(
      int_field(root, "threads", 0, 0, limits.max_threads));
  req.spec.restarts =
      static_cast<int>(int_field(root, "restarts", 1, 1, limits.max_restarts));
  if (const JsonValue* b = root.find("budget_ms"); b != nullptr) {
    if (!b->is_number()) reject("'budget_ms' must be a number");
    const double ms = b->as_number();
    if (!(ms >= 0) || ms > limits.max_budget_ms) {
      reject("'budget_ms' out of range [0, " +
             std::to_string(limits.max_budget_ms) + "]");
    }
    req.spec.budget_ms = ms;
  }
  if (const JsonValue* t = root.find("queue_ttl_ms"); t != nullptr) {
    if (!t->is_number()) reject("'queue_ttl_ms' must be a number");
    const double ms = t->as_number();
    if (!(ms >= 0) || ms > limits.max_budget_ms) {
      reject("'queue_ttl_ms' out of range [0, " +
             std::to_string(limits.max_budget_ms) + "]");
    }
    req.spec.queue_ttl_ms = ms;
  }
  // Durable-state knobs (no-ops on a server without --state-dir).
  req.spec.checkpoint_every_ms = int_field(
      root, "checkpoint_every_ms", 0, 0,
      static_cast<std::int64_t>(limits.max_budget_ms));
  if (const JsonValue* w = root.find("warm_start"); w != nullptr) {
    if (!w->is_bool()) reject("'warm_start' must be a boolean");
    req.spec.warm_start = w->as_bool();
  }
  if (const JsonValue* e = root.find("evolve"); e != nullptr) {
    if (!e->is_bool()) reject("'evolve' must be a boolean");
    req.spec.evolve = e->as_bool();
  }
  return req;
}

/// migrate_elite: the inter-shard elite push. Input is as untrusted as any
/// other op — a hostile peer must not be able to plant an oversized
/// assignment or an out-of-range part id in the archive.
Request parse_migrate(const JsonValue& root, const ProtocolLimits& limits) {
  Request req;
  req.op = RequestOp::MigrateElite;
  for (const auto& [key, unused] : root.as_object()) {
    (void)unused;
    if (key != "op" && key != "digest" && key != "k" && key != "objective" &&
        key != "value" && key != "assignment") {
      reject("unknown key '" + key + "' in migrate_elite");
    }
  }

  const JsonValue* d = root.find("digest");
  if (d == nullptr || !d->is_string()) reject("'digest' must be a hex string");
  const std::string& hex = d->as_string();
  if (hex.empty() || hex.size() > 16) {
    reject("'digest' must be 1..16 hex digits");
  }
  std::uint64_t digest = 0;
  for (const char c : hex) {
    int v = -1;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else reject("'digest' must be 1..16 hex digits");
    digest = digest * 16 + static_cast<std::uint64_t>(v);
  }
  req.digest = digest;

  if (root.find("k") == nullptr) reject("missing 'k'");
  req.spec.k = static_cast<int>(int_field(root, "k", 0, 1, 1 << 24));
  const JsonValue* o = root.find("objective");
  if (o == nullptr || !o->is_string()) reject("'objective' must be a string");
  const auto kind = objective_from_name(o->as_string());
  if (!kind) {
    reject("unknown objective '" + o->as_string() +
           "' (expected cut|ncut|mcut|rcut)");
  }
  req.spec.objective = *kind;

  const JsonValue* v = root.find("value");
  if (v == nullptr || !v->is_number()) reject("'value' must be a number");
  req.migrate_value = v->as_number();
  if (!std::isfinite(req.migrate_value)) reject("'value' must be finite");

  const JsonValue* a = root.find("assignment");
  if (a == nullptr || !a->is_array()) reject("'assignment' must be an array");
  const auto& raw = a->as_array();
  const std::int64_t vcap =
      std::min(limits.graph.vertex_cap(), limits.max_inline_vertices);
  if (raw.empty() || static_cast<std::int64_t>(raw.size()) > vcap) {
    reject("'assignment' size out of range [1, " + std::to_string(vcap) +
           "]");
  }
  auto parts = std::make_shared<std::vector<int>>();
  parts->reserve(raw.size());
  for (const JsonValue& e : raw) {
    std::int64_t p = 0;
    try {
      p = e.as_int();
    } catch (const Error&) {
      reject("'assignment' entries must be integers");
    }
    if (p < 0 || p >= req.spec.k) {
      reject("'assignment' entry out of range [0, k)");
    }
    parts->push_back(static_cast<int>(p));
  }
  req.migrate_assignment = std::move(parts);
  return req;
}

}  // namespace

Request parse_request(std::string_view line, const ProtocolLimits& limits) {
  JsonValue root = JsonValue::parse(line, limits.json);
  if (!root.is_object()) reject("request must be a JSON object");
  const JsonValue* op = root.find("op");
  if (op == nullptr || !op->is_string()) reject("missing string 'op'");
  const std::string& name = op->as_string();

  if (name == "submit") return parse_submit(root, limits);
  if (name == "migrate_elite") return parse_migrate(root, limits);

  if (name == "shutdown") {
    for (const auto& [key, unused] : root.as_object()) {
      (void)unused;
      if (key != "op") reject("unknown key '" + key + "' in shutdown");
    }
    Request req;
    req.op = RequestOp::Shutdown;
    return req;
  }

  RequestOp kind;
  if (name == "status") kind = RequestOp::Status;
  else if (name == "cancel") kind = RequestOp::Cancel;
  else if (name == "result") kind = RequestOp::Result;
  else reject("unknown op '" + name + "'");

  for (const auto& [key, unused] : root.as_object()) {
    (void)unused;
    if (key != "op" && key != "id") {
      reject("unknown key '" + key + "' in " + name);
    }
  }
  Request req;
  req.op = kind;
  req.id = parse_id(root, limits);
  return req;
}

namespace {

void append_number(std::string& out, double value) {
  out += format("%.17g", value);
}

}  // namespace

std::string format_ack(std::string_view id) {
  std::string out = "{\"event\":\"ack\",\"id\":";
  json_append_quoted(out, id);
  out += "}";
  return out;
}

std::string format_error(std::string_view id, std::string_view message,
                         ErrCode code, double retry_after_ms) {
  std::string out = "{\"event\":\"error\",\"id\":";
  json_append_quoted(out, id);
  out += ",\"message\":";
  json_append_quoted(out, message);
  out += ",\"code\":\"";
  out += err_name(code);
  out += "\",\"retryable\":";
  out += err_retryable(code) ? "true" : "false";
  if (retry_after_ms >= 0) {
    out += ",\"retry_after_ms\":";
    append_number(out, retry_after_ms);
  }
  out += "}";
  return out;
}

std::string format_progress(std::string_view id, double seconds,
                            double value) {
  std::string out = "{\"event\":\"progress\",\"id\":";
  json_append_quoted(out, id);
  out += ",\"seconds\":";
  append_number(out, seconds);
  out += ",\"value\":";
  append_number(out, value);
  out += "}";
  return out;
}

std::string format_status(std::string_view id, const JobStatus& status,
                          const api::CacheCounters* cache,
                          const evolve::ArchiveCounters* archive,
                          const double* archive_best,
                          const ServeCounters* serve) {
  std::string out = "{\"event\":\"status\",\"id\":";
  json_append_quoted(out, id);
  out += ",\"state\":\"";
  out += to_string(status.state);
  out += "\",\"seconds\":";
  append_number(out, status.seconds);
  if (!status.progress.empty()) {
    out += ",\"best_value\":";
    append_number(out, status.progress.back().best_value);
  }
  out += ",\"improvements\":" + std::to_string(status.progress.size());
  if (cache != nullptr) {
    out += ",\"cache_hits\":" + std::to_string(cache->hits);
    out += ",\"cache_misses\":" + std::to_string(cache->misses);
    out += ",\"cache_entries\":" + std::to_string(cache->entries);
    out += ",\"cache_capacity\":" + std::to_string(cache->capacity);
    out += ",\"cache_evictions\":" + std::to_string(cache->evictions);
  }
  if (archive != nullptr) {
    out += ",\"archive_elites\":" + std::to_string(archive->elites);
    out += ",\"archive_populations\":" + std::to_string(archive->populations);
    out += ",\"archive_admitted\":" + std::to_string(archive->admitted);
    out += ",\"archive_evicted\":" + std::to_string(archive->evicted);
    out += ",\"archive_hit_rate\":";
    append_number(out, archive->lookups > 0
                           ? static_cast<double>(archive->hits) /
                                 static_cast<double>(archive->lookups)
                           : 0.0);
  }
  if (archive_best != nullptr) {
    out += ",\"archive_best\":";
    append_number(out, *archive_best);
  }
  if (serve != nullptr) {
    out += ",\"conns_open\":" + std::to_string(serve->connections_open);
    out += ",\"conns_total\":" + std::to_string(serve->connections_total);
    out += ",\"loop_wakeups\":" + std::to_string(serve->loop_wakeups);
    out += ",\"sheds\":" + std::to_string(serve->sheds);
    out += ",\"migrations_sent\":" + std::to_string(serve->migrations_sent);
    out += ",\"migrations_received\":" +
           std::to_string(serve->migrations_received);
  }
  out += "}";
  return out;
}

std::string format_result(std::string_view id, const JobStatus& status) {
  FFP_CHECK(status.result != nullptr,
            "format_result needs a terminal job with a partition");
  std::string out = "{\"event\":\"result\",\"id\":";
  json_append_quoted(out, id);
  out += ",\"state\":\"";
  out += to_string(status.state);
  out += "\",\"value\":";
  append_number(out, status.result->best_value);
  out += ",\"seconds\":";
  append_number(out, status.seconds);
  out += ",\"partition\":[";
  const auto parts = status.result->best.assignment();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(parts[i]);
  }
  out += "]}";
  return out;
}

std::string format_terminal(std::string_view id, const JobStatus& status) {
  if (status.result != nullptr) return format_result(id, status);
  if (status.state == JobState::Failed) {
    // Preserve the scheduler's code (QueueExpired is retryable; solver
    // failures are not) instead of flattening to one class.
    return format_error(id, "job failed: " + status.error,
                        status.error_code != ErrCode::None
                            ? status.error_code
                            : ErrCode::JobFailed);
  }
  return format_error(id, "job was cancelled before it ran",
                      ErrCode::Cancelled);
}

std::string format_bye() { return "{\"event\":\"bye\"}"; }

std::string format_migrate(bool admitted) {
  return admitted ? "{\"event\":\"migrate\",\"admitted\":true}"
                  : "{\"event\":\"migrate\",\"admitted\":false}";
}

std::string format_migrate_elite(const evolve::PopulationKey& key,
                                 double value, std::span<const int> parts) {
  std::string out = "{\"op\":\"migrate_elite\",\"digest\":\"";
  out += format("%016llx", static_cast<unsigned long long>(key.digest));
  out += "\",\"k\":" + std::to_string(key.k);
  out += ",\"objective\":\"";
  out += objective_token(key.objective);
  out += "\",\"value\":";
  append_number(out, value);
  out += ",\"assignment\":[";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(parts[i]);
  }
  out += "]}";
  return out;
}

EventHead read_event_head(std::string_view line) {
  // Decodes the JSON string that opens at `at`, escapes included; returns
  // it with the position just past its closing quote.
  const auto string_at = [line](std::size_t at) {
    if (at >= line.size() || line[at] != '"') {
      throw Error("response line has no event head");
    }
    std::size_t end = at + 1;
    while (end < line.size() && line[end] != '"') {
      end += line[end] == '\\' ? 2 : 1;
    }
    if (end >= line.size()) throw Error("response line has no event head");
    ++end;
    return std::pair(JsonValue::parse(line.substr(at, end - at)).as_string(),
                     end);
  };
  constexpr std::string_view kEvent = "{\"event\":";
  constexpr std::string_view kId = ",\"id\":";
  if (!starts_with(line, kEvent)) {
    throw Error("response line has no event head");
  }
  EventHead head;
  auto [event, end] = string_at(kEvent.size());
  head.event = std::move(event);
  if (starts_with(line.substr(end), kId)) {
    head.id = string_at(end + kId.size()).first;
  }
  return head;
}

}  // namespace ffp
