// Shared helpers for the serving-stack suites (event loop, chaos, router).
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/service.hpp"

namespace ffp::testing {

/// Job id → (partition, value), as the raw `result` lines report them.
using Outcomes = std::map<std::string, std::pair<std::vector<int>, double>>;

/// Every result must have succeeded; failures are reported and skipped.
inline Outcomes outcomes(const std::vector<ClientResult>& results) {
  Outcomes out;
  for (const ClientResult& r : results) {
    EXPECT_TRUE(r.ok) << r.id << " failed [" << err_name(r.code)
                      << "]: " << r.error;
    if (!r.ok) continue;
    const JsonValue event = JsonValue::parse(r.result_line);
    std::vector<int> parts;
    for (const auto& p : event.find("partition")->as_array()) {
      parts.push_back(static_cast<int>(p.as_int()));
    }
    out[r.id] = {std::move(parts), event.find("value")->as_number()};
  }
  return out;
}

/// Threads in this process, from /proc/self/status.
inline int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

/// Raises the soft descriptor limit to `wanted`; false when the hard cap
/// is lower.
inline bool raise_fd_limit(rlim_t wanted) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return false;
  if (limit.rlim_cur >= wanted) return true;
  if (limit.rlim_max < wanted) return false;
  limit.rlim_cur = wanted;
  return ::setrlimit(RLIMIT_NOFILE, &limit) == 0;
}

/// Host + EventLoopServer on an ephemeral port, pumping in a background
/// thread (the "loop thread" — the only thread the transport adds).
struct LoopServer {
  explicit LoopServer(EventLoopOptions lopt = loop_defaults(),
                      SessionPolicy policy = {})
      : host(service_defaults()),
        server(host.serve_stats(), lopt, serve_sessions(host, policy)),
        pump([this] { server.run(); }) {}

  ~LoopServer() {
    server.request_stop();
    if (pump.joinable()) pump.join();
  }

  static ServiceOptions service_defaults() {
    ServiceOptions options;
    options.runners = 2;
    return options;
  }
  static EventLoopOptions loop_defaults() {
    EventLoopOptions options;
    options.port = 0;
    options.idle_timeout_ms = 10000;
    options.write_timeout_ms = 10000;
    return options;
  }

  int port() const { return server.port(); }

  ServiceHost host;
  EventLoopServer server;
  std::thread pump;
};

/// A deterministic mixed batch: step-budgeted jobs over two graphs, two
/// k values and two objectives — enough variety that transport-dependent
/// reordering would show up as a diff.
inline std::vector<ClientJob> mixed_jobs() {
  std::string ring = "[";
  for (int v = 0; v < 12; ++v) {
    if (v > 0) ring += ",";
    ring += "[" + std::to_string(v) + "," + std::to_string((v + 1) % 12) + "]";
  }
  ring += "]";
  std::string grid = "[";
  bool first = true;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const int v = r * 4 + c;
      if (c + 1 < 4) {
        if (!first) grid += ",";
        first = false;
        grid += "[" + std::to_string(v) + "," + std::to_string(v + 1) + "]";
      }
      if (r + 1 < 4) {
        grid += ",[" + std::to_string(v) + "," + std::to_string(v + 4) + "]";
      }
    }
  }
  grid += "]";

  std::vector<ClientJob> jobs;
  const auto add = [&jobs](const std::string& id, const std::string& edges,
                           int n, int k, const std::string& objective,
                           int seed) {
    jobs.push_back(
        {id, "{\"op\":\"submit\",\"id\":\"" + id + "\",\"graph\":{\"n\":" +
                 std::to_string(n) + ",\"edges\":" + edges +
                 "},\"k\":" + std::to_string(k) + ",\"objective\":\"" +
                 objective + "\",\"steps\":400,\"seed\":" +
                 std::to_string(seed) + "}"});
  };
  add("m0", ring, 12, 2, "cut", 7);
  add("m1", ring, 12, 3, "mcut", 8);
  add("m2", grid, 16, 2, "ncut", 9);
  add("m3", grid, 16, 4, "cut", 10);
  add("m4", ring, 12, 2, "cut", 7);  // duplicate of m0: cache territory
  return jobs;
}

inline ServiceClientOptions client_options(int port) {
  ServiceClientOptions options;
  options.port = port;
  options.retry.max_attempts = 8;
  options.retry.base_ms = 5;
  options.retry.max_ms = 50;
  options.retry.seed = 11;
  options.io_timeout_ms = 10000;
  return options;
}

/// The transport-free reference for the mixed batch: the same submit and
/// result lines handled by an in-process ServiceSession (blocking result
/// path). Every run over the loop must reproduce it byte for byte.
inline const Outcomes& session_reference() {
  static const Outcomes reference = [] {
    ServiceHost host(LoopServer::service_defaults());
    std::string last;
    SessionPolicy policy;
    policy.teardown_wait_ms = 0;
    ServiceSession session(
        host, [&last](const std::string& line) { last = line; }, policy);
    std::vector<ClientResult> results;
    for (const ClientJob& job : mixed_jobs()) {
      session.handle_line(job.submit_line);
      session.handle_line("{\"op\":\"result\",\"id\":\"" + job.id + "\"}");
      results.push_back({job.id, true, last, ErrCode::None, ""});
    }
    return outcomes(results);
  }();
  return reference;
}

}  // namespace ffp::testing
