// EventLoopServer suite — the one TCP transport, driven with real loopback
// sockets: ServiceHost + event loop on one side, ServiceClient's retry
// loop (or raw sockets) on the other. The fault scenarios over the same
// setup live in test_chaos.
//
// The contract being proven:
//   * byte-identical results to an in-process ServiceSession with no
//     transport at all;
//   * thousands of concurrent connections on a BOUNDED thread count (the
//     loop thread plus the engine's runners, nothing per client);
//   * the connection policies: immediate structured shedding beyond
//     max_clients, idle reaping that never cuts off an owed reply,
//     forbidden remote shutdown, bounded graceful drain (ctest enforces a
//     hard timeout).
#include "net/event_loop.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve_support.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/service.hpp"
#include "util/timer.hpp"

namespace ffp {
namespace {

using testing::client_options;
using testing::LoopServer;
using testing::mixed_jobs;
using testing::outcomes;
using testing::session_reference;

/// Reads one line and returns it parsed (a "<closed>" event at EOF).
JsonValue next_event(LineReader& reader) {
  std::string line;
  EXPECT_TRUE(reader.next(line)) << "connection closed";
  return JsonValue::parse(!line.empty() ? line
                                        : R"({"event":"<closed>",)"
                                          R"("code":"<closed>"})");
}

TEST(EventLoop, MixedBatchMatchesAnInProcessSessionByteForByte) {
  const auto& reference = session_reference();
  ASSERT_EQ(reference.size(), mixed_jobs().size());
  LoopServer server;
  ServiceClient client(client_options(server.port()));
  EXPECT_EQ(outcomes(client.run(mixed_jobs())), reference);
}

// The headline: >= 1024 concurrent connections, every one served, and
// the process thread count does not move — connections cost file
// descriptors, not threads.
TEST(EventLoop, SustainsAThousandConcurrentConnectionsWithBoundedThreads) {
  // Two fds per connection (client + server end), plus slack.
  if (!testing::raise_fd_limit(4096)) {
    GTEST_SKIP() << "RLIMIT_NOFILE cannot hold 2x1024 sockets";
  }
  constexpr int kConns = 1024;
  EventLoopOptions lopt = LoopServer::loop_defaults();
  lopt.max_clients = kConns + 8;
  LoopServer server(lopt);

  const int threads_before = testing::thread_count();
  ASSERT_GT(threads_before, 0);

  std::vector<FdHandle> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    conns.push_back(tcp_connect(server.port()));
  }

  // Every connection is live: each one gets a real response. (An unknown
  // job id is the cheapest request that proves a full round trip.)
  for (int i = 0; i < kConns; ++i) {
    write_line(conns[static_cast<std::size_t>(i)],
               R"({"op":"status","id":"probe"})", 10000);
  }
  for (int i = 0; i < kConns; ++i) {
    LineReader reader(conns[static_cast<std::size_t>(i)]);
    reader.set_timeout_ms(20000);
    EXPECT_EQ(next_event(reader).find("code")->as_string(), "unknown_job")
        << "connection " << i;
  }

  // 1024 live connections added ZERO threads: the loop was already
  // running, and nothing is spawned per client.
  EXPECT_LE(testing::thread_count(), threads_before)
      << "event loop grew threads with connection count";

  // With all of that held open, real work still flows end to end.
  FdHandle worker = tcp_connect(server.port());
  LineReader reader(worker);
  reader.set_timeout_ms(20000);
  write_line(worker, mixed_jobs()[0].submit_line, 10000);
  ASSERT_EQ(next_event(reader).find("event")->as_string(), "ack");
  write_line(worker, R"({"op":"result","id":"m0"})", 10000);
  const JsonValue result = next_event(reader);
  ASSERT_EQ(result.find("event")->as_string(), "result");
  EXPECT_EQ(result.find("value")->as_number(),
            session_reference().at("m0").second);

  // The server reports what it is carrying.
  write_line(worker, R"({"op":"status","id":"m0"})", 10000);
  const JsonValue status = next_event(reader);
  ASSERT_NE(status.find("conns_open"), nullptr);
  EXPECT_GE(status.find("conns_open")->as_int(), kConns);
  EXPECT_GE(status.find("conns_total")->as_int(), kConns + 1);
  EXPECT_GT(status.find("loop_wakeups")->as_int(), 0);
}

TEST(EventLoop, ShedsBeyondMaxClientsWithStructuredError) {
  EventLoopOptions lopt = LoopServer::loop_defaults();
  lopt.max_clients = 1;
  LoopServer server(lopt);

  // First connection claims the only slot. Prove the claim landed (the
  // session answers) before dialing the next connection, so the shed is
  // deterministic, not a race with the accept loop.
  FdHandle holder = tcp_connect(server.port());
  {
    LineReader reader(holder);
    reader.set_timeout_ms(5000);
    write_line(holder, R"({"op":"status","id":"nope"})");
    ASSERT_EQ(next_event(reader).find("code")->as_string(), "unknown_job");
  }

  // The second connection is told "overloaded" IMMEDIATELY — not queued
  // behind the holder, not silently hung — and then closed.
  FdHandle extra = tcp_connect(server.port());
  LineReader reader(extra);
  reader.set_timeout_ms(5000);
  const JsonValue event = next_event(reader);
  ASSERT_EQ(event.find("event")->as_string(), "error");
  EXPECT_EQ(event.find("code")->as_string(), "overloaded");
  EXPECT_TRUE(event.find("retryable")->as_bool());
  EXPECT_EQ(event.find("retry_after_ms")->as_number(), kOverloadRetryAfterMs);
  std::string line;
  EXPECT_FALSE(reader.next(line));
  extra.reset();
  EXPECT_GE(server.host.serve_stats().snapshot().sheds, 1);

  // Once the holder leaves, a retrying client gets real service.
  holder.reset();
  ServiceClient client(client_options(server.port()));
  EXPECT_EQ(outcomes(client.run(mixed_jobs())), session_reference());
}

TEST(EventLoop, ReapsIdleConnectionsWithAStructuredGoodbye) {
  EventLoopOptions lopt = LoopServer::loop_defaults();
  lopt.idle_timeout_ms = 200;  // a silent client loses its slot fast
  LoopServer server(lopt);

  FdHandle idle = tcp_connect(server.port());
  LineReader reader(idle);
  reader.set_timeout_ms(5000);
  // Send nothing: within the idle window the server reaps us with a
  // retryable timeout error, then closes.
  const JsonValue event = next_event(reader);
  EXPECT_EQ(event.find("event")->as_string(), "error");
  EXPECT_EQ(event.find("code")->as_string(), "timeout");
  EXPECT_TRUE(event.find("retryable")->as_bool());
  std::string line;
  EXPECT_FALSE(reader.next(line));

  // The freed slot serves the next client normally.
  FdHandle live = tcp_connect(server.port());
  LineReader live_reader(live);
  live_reader.set_timeout_ms(5000);
  write_line(live, mixed_jobs()[0].submit_line);
  EXPECT_EQ(next_event(live_reader).find("event")->as_string(), "ack");
}

// A client waiting on a result is owed a reply: the idle clock stands
// still until the reply is sent, then restarts.
TEST(EventLoop, IdleClockStopsWhileAResultIsOwed) {
  EventLoopOptions lopt = LoopServer::loop_defaults();
  lopt.idle_timeout_ms = 500;
  LoopServer server(lopt);

  FdHandle conn = tcp_connect(server.port());
  LineReader reader(conn);
  reader.set_timeout_ms(10000);
  write_line(conn,
             R"({"op":"submit","id":"long","graph":{"n":8,"edges":)"
             R"([[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]]},)"
             R"("k":2,"budget_ms":1500})");
  ASSERT_EQ(next_event(reader).find("event")->as_string(), "ack");

  const WallTimer waited;
  write_line(conn, R"({"op":"result","id":"long"})");
  const JsonValue result = next_event(reader);
  EXPECT_EQ(result.find("event")->as_string(), "result");
  EXPECT_GE(waited.elapsed_millis(), 1000.0);

  // Reply sent: the silence after it is reaped as usual.
  const JsonValue goodbye = next_event(reader);
  EXPECT_EQ(goodbye.find("code")->as_string(), "timeout");
  std::string line;
  EXPECT_FALSE(reader.next(line));
}

TEST(EventLoop, RemoteShutdownForbiddenWhenThePolicyDeniesIt) {
  // ffp_serve's default stance: remote shutdown stays off unless
  // --allow-remote-shutdown flips the session policy.
  SessionPolicy policy;
  policy.allow_shutdown = false;
  LoopServer server(LoopServer::loop_defaults(), policy);
  FdHandle conn = tcp_connect(server.port());
  LineReader reader(conn);
  reader.set_timeout_ms(5000);
  write_line(conn, R"({"op":"shutdown"})");
  const JsonValue event = next_event(reader);
  EXPECT_EQ(event.find("event")->as_string(), "error");
  EXPECT_EQ(event.find("code")->as_string(), "forbidden");
  EXPECT_FALSE(event.find("retryable")->as_bool());

  // The connection survived the refusal and still serves requests.
  write_line(conn, mixed_jobs()[0].submit_line);
  EXPECT_EQ(next_event(reader).find("event")->as_string(), "ack");
}

TEST(EventLoop, GracefulDrainWithAJobInFlight) {
  LoopServer server;
  FdHandle conn = tcp_connect(server.port());
  LineReader reader(conn);
  reader.set_timeout_ms(5000);
  // A wall-clock job long enough to still be running at the stop signal.
  write_line(conn,
             R"({"op":"submit","id":"slow","graph":{"n":8,"edges":)"
             R"([[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]]},)"
             R"("k":2,"budget_ms":60000})");
  ASSERT_EQ(next_event(reader).find("event")->as_string(), "ack");

  // SIGTERM path: the drain must cancel the running job (anytime
  // semantics) and return well within the ctest timeout — that timeout
  // is the real assertion here. The destructor stops again harmlessly.
  server.server.request_stop();
  server.pump.join();
}

}  // namespace
}  // namespace ffp
