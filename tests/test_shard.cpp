// Shard suite: the consistent-hash ring, the digest-keyed Router front
// end, and inter-shard elite migration.
//
// The scale-out contract under test:
//   * the ring is deterministic, balanced, and remaps ~1/N of digests
//     when a shard is added (never a full reshuffle);
//   * repeat submissions of one graph through the router land on ONE
//     shard — its result cache answers the repeats (digest affinity);
//   * a shard SIGKILLed mid-batch costs retries, not results: the
//     router's retryable errors plus the client's resubmission loop land
//     every job on the survivor, byte-identical to a fault-free run — and
//     so does a run under injected transport faults;
//   * the router's clients and shard links share one event loop: no
//     thread per client, the loop's shedding and idle reaping, results
//     bigger than any request relayed intact, and a shard reaping an idle
//     link never answers the client's next request;
//   * an elite migrated between shards is admitted through the peer's
//     diversity-aware archive rules and is visible in its counters, and
//     on failover it pays: the peer that received a dead home shard's
//     elites starts its first evolve submit from them.
#include "shard/hash_ring.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/problem.hpp"
#include "net/event_loop.hpp"
#include "serve_support.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/service.hpp"
#include "shard/migrate.hpp"
#include "shard/router.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ffp {
namespace {

using shard::HashRing;
using testing::Outcomes;
using testing::outcomes;

TEST(HashRing, DeterministicAndInRange) {
  const HashRing a(4, 64);
  const HashRing b(4, 64);
  std::uint64_t state = 42;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t digest = splitmix64(state);
    const std::size_t owner = a.owner(digest);
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, b.owner(digest));  // same construction, same ring
    const auto pref = a.preference(digest);
    ASSERT_EQ(pref.size(), 4u);
    EXPECT_EQ(pref[0], owner);  // preference starts at the owner
    EXPECT_EQ(std::set<std::size_t>(pref.begin(), pref.end()).size(), 4u);
  }
}

TEST(HashRing, SpreadsLoadAcrossShards) {
  const HashRing ring(4, 64);
  std::vector<int> hits(4, 0);
  std::uint64_t state = 7;
  constexpr int kDigests = 4000;
  for (int i = 0; i < kDigests; ++i) {
    ++hits[ring.owner(splitmix64(state))];
  }
  for (int s = 0; s < 4; ++s) {
    // Fair share is 1000; vnode placement noise stays well inside 2x.
    EXPECT_GT(hits[s], kDigests / 10) << "shard " << s << " starved";
    EXPECT_LT(hits[s], kDigests / 2) << "shard " << s << " overloaded";
  }
}

TEST(HashRing, AddingAShardRemapsABoundedFraction) {
  const HashRing three(3, 64);
  const HashRing four(4, 64);
  std::uint64_t state = 99;
  constexpr int kDigests = 4000;
  int moved = 0;
  for (int i = 0; i < kDigests; ++i) {
    const std::uint64_t digest = splitmix64(state);
    const std::size_t before = three.owner(digest);
    const std::size_t after = four.owner(digest);
    if (before != after) {
      ++moved;
      // Every move is TO the new shard; 0..2 never trade among themselves.
      EXPECT_EQ(after, 3u);
    }
  }
  // Expected ~1/4 of keys move; a naive mod-N rehash moves ~3/4.
  EXPECT_LT(moved, kDigests / 2);
  EXPECT_GT(moved, kDigests / 20);
}

// ------------------------------------------------------------------------
// In-process fleet harness: N shard servers + one router, all pumping in
// background threads.

struct Shard {
  explicit Shard(EventLoopOptions lopt = {})
      : host(options()),
        server(host.serve_stats(), lopt, serve_sessions(host, {})),
        pump([this] { server.run(); }) {}

  ~Shard() {
    server.request_stop();
    if (pump.joinable()) pump.join();
  }

  static ServiceOptions options() {
    ServiceOptions o;
    o.runners = 2;
    return o;
  }

  int port() const { return server.port(); }

  ServiceHost host;
  EventLoopServer server;
  std::thread pump;
};

struct Fleet {
  explicit Fleet(std::size_t shards, shard::RouterOptions ropt = {},
                 EventLoopOptions shard_loop = {}) {
    for (std::size_t s = 0; s < shards; ++s) {
      members.push_back(std::make_unique<Shard>(shard_loop));
      ropt.shard_ports.push_back(members.back()->port());
    }
    router = std::make_unique<shard::Router>(std::move(ropt));
    pump = std::thread([this] { router->run(); });
  }

  ~Fleet() {
    router->request_stop();
    if (pump.joinable()) pump.join();
  }

  int port() const { return router->port(); }

  std::vector<std::unique_ptr<Shard>> members;
  std::unique_ptr<shard::Router> router;
  std::thread pump;
};

ServiceClientOptions fleet_client(int port) {
  ServiceClientOptions options;
  options.port = port;
  options.retry.max_attempts = 8;
  options.retry.base_ms = 5;
  options.retry.max_ms = 50;
  options.retry.seed = 23;
  options.io_timeout_ms = 20000;
  return options;
}

std::string ring_submit(const std::string& id, int n, int seed) {
  std::string edges = "[";
  for (int v = 0; v < n; ++v) {
    if (v > 0) edges += ",";
    edges += "[" + std::to_string(v) + "," + std::to_string((v + 1) % n) + "]";
  }
  edges += "]";
  return "{\"op\":\"submit\",\"id\":\"" + id + "\",\"graph\":{\"n\":" +
         std::to_string(n) + ",\"edges\":" + edges +
         "},\"k\":2,\"steps\":400,\"seed\":" + std::to_string(seed) + "}";
}

/// Reads one line and returns its event name (or code, for errors).
std::string next_event(LineReader& reader) {
  std::string line;
  if (!reader.next(line)) return "<closed>";
  const JsonValue event = JsonValue::parse(line);
  const std::string name = event.find("event")->as_string();
  return name == "error" ? "error:" + event.find("code")->as_string() : name;
}

TEST(Router, RepeatSubmissionsStickToOneShardAndHitItsCache) {
  Fleet fleet(2);
  ServiceClient client(fleet_client(fleet.port()));

  // Same graph + spec under three ids, submitted ONE AT A TIME (so each
  // repeat finds the previous result already cached): one solve, two
  // cache hits — all on the SAME shard, or affinity is broken.
  Outcomes results;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "a" + std::to_string(i);
    const auto one =
        outcomes(client.run({ClientJob{id, ring_submit(id, 12, 5)}}));
    results.insert(one.begin(), one.end());
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results.at("a0"), results.at("a1"));
  EXPECT_EQ(results.at("a0"), results.at("a2"));

  const auto c0 = fleet.members[0]->host.engine().cache_counters();
  const auto c1 = fleet.members[1]->host.engine().cache_counters();
  EXPECT_EQ(c0.hits + c1.hits, 2) << "expected exactly two cache hits";
  EXPECT_TRUE(c0.hits == 0 || c1.hits == 0)
      << "one graph spread across both shards: affinity broken "
      << "(hits " << c0.hits << " + " << c1.hits << ")";
  // Different graphs DO spread (eventually): not asserted here — vnode
  // placement for two specific digests may legitimately collide.
}

TEST(Router, StatusOfUnroutedJobIsUnknownAndShutdownIsGated) {
  Fleet fleet(2);
  FdHandle conn = tcp_connect(fleet.port());
  LineReader reader(conn);
  reader.set_timeout_ms(10000);

  write_line(conn, R"({"op":"status","id":"ghost"})");
  EXPECT_EQ(next_event(reader), "error:unknown_job");

  write_line(conn, R"({"op":"shutdown"})");
  EXPECT_EQ(next_event(reader), "error:forbidden");

  // migrate_elite is shard-to-shard gossip; the front door refuses it.
  write_line(conn,
             R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut",)"
             R"("value":1.0,"assignment":[0,1]})");
  EXPECT_EQ(next_event(reader), "error:bad_request");

  // ... and the connection survived all three refusals.
  write_line(conn, ring_submit("ok", 12, 5));
  EXPECT_EQ(next_event(reader), "ack");
}

// A shard reaping the router's idle link sends a goodbye nobody asked
// for: it closes that link quietly instead of answering the client's
// next request, which redials.
TEST(Router, StaleShardGoodbyeNeverAnswersTheNextRequest) {
  EventLoopOptions shard_loop;
  shard_loop.idle_timeout_ms = 200;
  Fleet fleet(1, {}, shard_loop);
  FdHandle conn = tcp_connect(fleet.port());
  LineReader reader(conn);
  reader.set_timeout_ms(10000);

  write_line(conn, ring_submit("a", 12, 5));
  EXPECT_EQ(next_event(reader), "ack");
  write_line(conn, R"({"op":"result","id":"a"})");
  EXPECT_EQ(next_event(reader), "result");
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  write_line(conn, ring_submit("b", 12, 6));
  EXPECT_EQ(next_event(reader), "ack");
  write_line(conn, R"({"op":"result","id":"b"})");
  EXPECT_EQ(next_event(reader), "result");
}

// Clients and shard links are loop connections: 256 open clients, each
// with a job on a shard, add no threads.
TEST(Router, ServesManyClientsWithoutAThreadEach) {
  if (!testing::raise_fd_limit(4096)) {
    GTEST_SKIP() << "RLIMIT_NOFILE cannot hold 4x256 sockets";
  }
  constexpr int kClients = 256;
  Fleet fleet(2);
  {
    // Warm up: every thread the fleet starts lazily exists from here on.
    ServiceClient client(fleet_client(fleet.port()));
    ASSERT_TRUE(client.run({ClientJob{"w", ring_submit("w", 12, 5)}})[0].ok);
  }
  const int threads_before = testing::thread_count();

  std::vector<FdHandle> conns;
  conns.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    conns.push_back(tcp_connect(fleet.port()));
    write_line(conns.back(), ring_submit("j", 10 + i % 8, 5), 10000);
  }
  for (const FdHandle& conn : conns) {
    LineReader reader(conn);
    reader.set_timeout_ms(20000);
    EXPECT_EQ(next_event(reader), "ack");
  }
  EXPECT_LE(testing::thread_count(), threads_before)
      << "the router grew threads with its client count";
}

TEST(Router, ShedsClientsBeyondMaxClients) {
  shard::RouterOptions ropt;
  ropt.loop.max_clients = 1;
  Fleet fleet(1, ropt);

  // Prove the holder's claim landed before dialing the next connection.
  FdHandle holder = tcp_connect(fleet.port());
  LineReader holder_reader(holder);
  holder_reader.set_timeout_ms(5000);
  write_line(holder, R"({"op":"status","id":"ghost"})");
  ASSERT_EQ(next_event(holder_reader), "error:unknown_job");

  FdHandle extra = tcp_connect(fleet.port());
  LineReader reader(extra);
  reader.set_timeout_ms(5000);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const JsonValue event = JsonValue::parse(line);
  EXPECT_EQ(event.find("code")->as_string(), "overloaded") << line;
  EXPECT_EQ(event.find("retry_after_ms")->as_number(), kOverloadRetryAfterMs)
      << line;
  EXPECT_FALSE(reader.next(line));
}

TEST(Router, ReapsIdleClientsWithATimeoutGoodbye) {
  shard::RouterOptions ropt;
  ropt.loop.idle_timeout_ms = 200;
  Fleet fleet(1, ropt);
  FdHandle idle = tcp_connect(fleet.port());
  LineReader reader(idle);
  reader.set_timeout_ms(5000);
  EXPECT_EQ(next_event(reader), "error:timeout");
  EXPECT_EQ(next_event(reader), "<closed>");
}

/// A shard stand-in on a plain blocking socket: acks every submit,
/// answers `result` with a partition of `entries` zeros and any other op
/// with a status line.
struct FakeShard {
  explicit FakeShard(std::size_t entries)
      : listener(tcp_listen(0, &port)),
        thread([this, entries] { serve(entries); }) {}
  ~FakeShard() {
    shutdown_both(listener);  // wakes an accept nobody dialed
    thread.join();
  }

  static std::string result_line(const std::string& id, std::size_t entries) {
    std::string line = R"({"event":"result","id":")" + id +
                       R"(","state":"done","value":1,"seconds":0,)"
                       R"("partition":[0)";
    line.reserve(line.size() + 2 * entries);
    for (std::size_t i = 1; i < entries; ++i) line += ",0";
    return line + "]}";
  }

  void serve(std::size_t entries) {
    const FdHandle conn(::accept(listener.get(), nullptr, nullptr));
    if (!conn.valid()) return;
    LineReader reader(conn);
    std::string line;
    try {
      while (reader.next(line)) {
        const JsonValue request = JsonValue::parse(line);
        const std::string op = request.find("op")->as_string();
        const std::string id = request.find("id")->as_string();
        write_line(conn, op == "submit"   ? format_ack(id)
                         : op == "result" ? result_line(id, entries)
                                          : R"({"event":"status","id":")" +
                                                id + R"(","state":"done"})");
      }
    } catch (const std::exception&) {
      // The router went away mid-line; nothing left to serve.
    }
  }

  int port = 0;
  FdHandle listener;
  std::thread thread;
};

// A result line may exceed every request limit (here: more elements than
// a request document may hold). The router relays it byte for byte and
// the connection carries on.
TEST(Router, RelaysResultsBeyondTheRequestLimitsIntact) {
  constexpr std::size_t kEntries = (std::size_t{1} << 24) + 1;
  FakeShard fake(kEntries);
  shard::RouterOptions ropt;
  ropt.shard_ports = {fake.port};
  Fleet fleet(0, ropt);
  FdHandle conn = tcp_connect(fleet.port());
  LineReader reader(conn);
  reader.set_timeout_ms(60000);

  write_line(conn, ring_submit("big", 12, 5));
  EXPECT_EQ(next_event(reader), "ack");
  write_line(conn, R"({"op":"result","id":"big"})");
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_TRUE(line == FakeShard::result_line("big", kEntries))
      << "relayed " << line.size() << " bytes: " << line.substr(0, 200);

  write_line(conn, R"({"op":"status","id":"big"})");
  EXPECT_EQ(next_event(reader), "status");
}

// ------------------------------------------------------------------------
// Elite migration.

TEST(Migration, ShipsBestEliteAndPeerAdmitsItOnce) {
  Shard sender;
  Shard receiver;

  // Seed the sender's archive directly (what a finished evolve job does).
  const std::uint64_t digest = 0xfeedc0de12345678ull;
  const std::vector<int> parts = {0, 0, 1, 1, 0, 1};
  ASSERT_TRUE(sender.host.engine().archive_admit(
      digest, 2, ObjectiveKind::Cut, parts, 4.0));

  shard::MigrateOptions mopt;
  mopt.peer_ports = {receiver.port()};
  mopt.period_ms = 60000;  // never ticks on its own; we drive it
  shard::EliteMigrator migrator(sender.host.engine(),
                                sender.host.serve_stats(), mopt);

  // First sweep pushes, second is quiet (no improvement since).
  EXPECT_EQ(migrator.migrate_once(), 1u);
  EXPECT_EQ(migrator.migrate_once(), 0u);
  EXPECT_EQ(sender.host.serve_stats().snapshot().migrations_sent, 1);
  EXPECT_EQ(receiver.host.serve_stats().snapshot().migrations_received, 1);

  // The peer's archive now exports the foreign elite, same bytes.
  const auto exports = receiver.host.engine().archive_exports();
  ASSERT_EQ(exports.size(), 1u);
  EXPECT_EQ(exports[0].first.digest, digest);
  EXPECT_EQ(exports[0].first.k, 2);
  EXPECT_EQ(exports[0].second.value, 4.0);
  EXPECT_EQ(*exports[0].second.assignment, parts);

  // An improvement re-triggers the push; a regression never would.
  const std::vector<int> better = {0, 1, 1, 1, 0, 0};
  ASSERT_TRUE(sender.host.engine().archive_admit(digest, 2,
                                                 ObjectiveKind::Cut, better,
                                                 3.0));
  EXPECT_EQ(migrator.migrate_once(), 1u);
  EXPECT_EQ(receiver.host.serve_stats().snapshot().migrations_received, 2);
}

TEST(Migration, DeadPeerIsSkippedWithoutStallingTheSweep) {
  Shard sender;
  int dead_port = 0;
  {
    // Grab an ephemeral port and close it: nothing listens there.
    const FdHandle probe = tcp_listen(0, &dead_port);
  }
  ASSERT_TRUE(sender.host.engine().archive_admit(
      0xabcull, 2, ObjectiveKind::Cut, std::vector<int>{0, 1, 0, 1}, 2.0));

  shard::MigrateOptions mopt;
  mopt.peer_ports = {dead_port};
  mopt.period_ms = 60000;
  mopt.io_timeout_ms = 500;
  shard::EliteMigrator migrator(sender.host.engine(),
                                sender.host.serve_stats(), mopt);
  EXPECT_EQ(migrator.migrate_once(), 0u);
  EXPECT_EQ(sender.host.serve_stats().snapshot().migrations_sent, 0);
  // The elite was NOT marked sent: a revived peer gets it next sweep.
}

/// Median of five or more values.
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TEST(Migration, MigratedElitesImproveTheSurvivorsFirstEvolveResult) {
  // The failover case migration exists for: a graph evolved on its home
  // shard, which then dies, so its next evolve submit lands on a peer.
  // The peer that received the home's elites must start from them: its
  // first result is never worse than the home's best, and over the seeds
  // it beats a peer that received nothing.
  constexpr int kSeeds = 5;
  constexpr int kHomeRounds = 3;
  const api::Problem problem = api::Problem::from_any("geometric:1024,0.06,3");
  api::SolveSpec spec;
  spec.method = "fusion_fission";
  spec.k = 8;
  spec.steps = 1500;
  spec.restarts = 3;
  spec.evolve = true;

  std::vector<double> with_migration;
  std::vector<double> without_migration;
  for (int s = 0; s < kSeeds; ++s) {
    Shard home;
    Shard survivor;
    Shard cold;
    for (int round = 0; round < kHomeRounds; ++round) {
      spec.seed = static_cast<std::uint64_t>(100 * s + round + 1);
      home.host.engine().solve(problem, spec);
    }
    const std::optional<double> home_best = home.host.engine().archive_best(
        problem.digest(), spec.k, spec.objective);
    ASSERT_TRUE(home_best.has_value());

    shard::MigrateOptions mopt;
    mopt.peer_ports = {survivor.port()};
    mopt.period_ms = 60000;  // never ticks on its own; we drive it
    {
      shard::EliteMigrator migrator(home.host.engine(),
                                    home.host.serve_stats(), mopt);
      ASSERT_EQ(migrator.migrate_once(), 1u);
    }
    // The home is gone from here on: only the survivors are asked.
    spec.seed = static_cast<std::uint64_t>(100 * s + kHomeRounds + 1);
    const double on = survivor.host.engine().solve(problem, spec).best_value;
    const double off = cold.host.engine().solve(problem, spec).best_value;
    EXPECT_LE(on, *home_best) << "seed " << s;
    with_migration.push_back(on);
    without_migration.push_back(off);
  }
  std::string values;
  for (int s = 0; s < kSeeds; ++s) {
    values += format(" %.4f/%.4f", with_migration[static_cast<std::size_t>(s)],
                     without_migration[static_cast<std::size_t>(s)]);
  }
  EXPECT_LT(median_of(with_migration), median_of(without_migration))
      << "migration bought nothing on failover (migrated/cold:" << values
      << ")";
}

// ------------------------------------------------------------------------
// Failover drill: one shard SIGKILLed mid-batch, every job still lands.

struct ShardProc {
  pid_t pid = -1;
  int port = 0;
  int err_fd = -1;

  ~ShardProc() {
    if (err_fd >= 0) ::close(err_fd);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  void sigkill() {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    pid = -1;
  }
};

void spawn_shard(ShardProc& proc) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    ::unsetenv("FFP_FAULT");
    ::execl("./ffp_serve", "ffp_serve", "--listen", "0", "--runners", "2",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed: tests must run from the build dir
  }
  ::close(fds[1]);
  proc.pid = pid;
  proc.err_fd = fds[0];
  std::string text;
  char c = 0;
  while (text.find("listening on 127.0.0.1:") == std::string::npos ||
         text.find('\n', text.find("listening on")) == std::string::npos) {
    const ssize_t n = ::read(proc.err_fd, &c, 1);
    ASSERT_GT(n, 0) << "ffp_serve died before listening; stderr:\n" << text;
    text.push_back(c);
  }
  const std::size_t colon = text.find("127.0.0.1:");
  proc.port = std::atoi(text.c_str() + colon + 10);
  ASSERT_GT(proc.port, 0) << text;
}

std::vector<ClientJob> drill_jobs() {
  std::vector<ClientJob> jobs;
  for (int i = 0; i < 6; ++i) {
    const std::string id = "f" + std::to_string(i);
    // Distinct ring sizes: distinct digests, so both shards get traffic.
    jobs.push_back({id, ring_submit(id, 10 + i, 31 + i)});
  }
  return jobs;
}

/// The fault-free reference: the same batch against one clean in-process
/// shard (no router) — values and partitions are transport-independent.
const Outcomes& drill_reference() {
  static const Outcomes reference = [] {
    Shard solo;
    ServiceClient client(fleet_client(solo.port()));
    auto out = outcomes(client.run(drill_jobs()));
    EXPECT_EQ(out.size(), 6u);
    return out;
  }();
  return reference;
}

TEST(RouterFailover, SigkilledShardMidBatchCostsRetriesNotResults) {
  const auto& reference = drill_reference();

  ShardProc a;
  ShardProc b;
  spawn_shard(a);
  spawn_shard(b);

  shard::RouterOptions ropt;
  ropt.shard_ports = {a.port, b.port};
  ropt.down_cooldown_ms = 60000;  // once dead, stay out of this drill
  shard::Router router(std::move(ropt));
  std::thread pump([&router] { router.run(); });

  std::vector<ClientResult> results;
  std::thread batch([&] {
    ServiceClient client(fleet_client(router.port()));
    results = client.run(drill_jobs());
  });
  // SIGKILL one shard while the batch is (very likely) mid-flight. The
  // timing can land anywhere; the contract is timing-independent.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  a.sigkill();
  batch.join();

  const auto survived = outcomes(results);
  EXPECT_EQ(survived, reference)
      << "failover changed bytes: determinism contract broken";

  router.request_stop();
  pump.join();
}

// Injected transport faults anywhere on the path — client, router, shard
// links, shards (the injector is process-wide) — cost retries, not bytes.
TEST(RouterFailover, InjectedConnectionDropsConvergeToTheReference) {
  const auto& reference = drill_reference();
  Fleet fleet(2);
  fault::configure("conn_drop=1;seed=5;max_fires=3");
  ServiceClient client(fleet_client(fleet.port()));
  const auto results = outcomes(client.run(drill_jobs()));
  const std::int64_t fired = fault::fires();
  fault::configure("");
  EXPECT_GT(fired, 0);
  EXPECT_EQ(results, reference);
}

}  // namespace
}  // namespace ffp
