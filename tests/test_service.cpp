#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/json.hpp"
#include "util/strings.hpp"

namespace ffp {
namespace {

/// Host + one-session harness: captures every emitted line and offers JSON
/// access. `lines` precedes `session` so streamed events always land in a
/// live vector; `host` precedes `session` because sessions borrow it.
struct Harness {
  explicit Harness(ServiceOptions options = {})
      : host(std::move(options)),
        session(host,
                [this](const std::string& line) { lines.push_back(line); }) {}

  bool feed(const std::string& line) { return session.handle_line(line); }

  JsonValue last() const {
    EXPECT_FALSE(lines.empty());
    return JsonValue::parse(lines.back());
  }
  std::string last_event() const { return last().find("event")->as_string(); }
  std::string last_message() const {
    return last().find("message")->as_string();
  }

  std::vector<std::string> lines;
  ServiceHost host;
  ServiceSession session;
};

const char* kInlineSubmit =
    R"({"op":"submit","id":"job","graph":{"n":6,"edges":[[0,1],[1,2],[2,3,0.1],[3,4],[4,5]]},"k":2,"steps":400,"seed":9})";

TEST(ServiceProtocol, RejectsMalformedRequests) {
  Harness h;
  const std::vector<std::string> bad = {
      "not json at all",
      "[1,2,3]",                                   // not an object
      R"({"id":"x"})",                             // missing op
      R"({"op":"submit","id":"x"})",               // no graph at all
      R"({"op":"submit","id":"x","graph_file":"a","graph":{"edges":[[0,1]]}})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0,1]]},"bogus":1})",
      R"({"op":"submit","graph":{"edges":[[0,1]]}})",          // missing id
      R"({"op":"submit","id":"","graph":{"edges":[[0,1]]}})",  // empty id
      R"({"op":"submit","id":"x","graph":{"edges":[[0,0]]}})",  // self loop
      R"({"op":"submit","id":"x","graph":{"edges":[[0,-1]]}})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0]]}})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0,1,"w"]]}})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0,1]],"extra":1}})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0,1]]},"k":0})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0,1]]},"steps":-1})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0,1]]},"objective":"x"})",
      R"({"op":"submit","id":"x","graph":{"edges":[[0,1]]},"method":""})",
      R"({"op":"submit","id":"x","graph":{"n":2,"edges":[[0,5]]}})",
      R"({"op":"status"})",
      R"({"op":"status","id":"x","extra":1})",
      R"({"op":"shutdown","extra":1})",
      R"({"op":"bogus"})",
  };
  for (const auto& line : bad) {
    EXPECT_TRUE(h.feed(line)) << line;
    EXPECT_EQ(h.last_event(), "error") << line << " -> " << h.lines.back();
  }
  // None of it reached the scheduler.
  EXPECT_EQ(h.host.engine().scheduler().jobs_completed(), 0);
}

TEST(ServiceProtocol, RejectsOversizedIdsAndDocuments) {
  ServiceOptions options;
  options.limits.max_id_bytes = 8;
  options.limits.json.max_bytes = 256;
  Harness h(std::move(options));
  h.feed(R"({"op":"status","id":"way_too_long_for_the_limit"})");
  EXPECT_EQ(h.last_event(), "error");
  std::string big = R"({"op":"status","id":")";
  big.append(300, 'a');
  big += "\"}";
  h.feed(big);
  EXPECT_EQ(h.last_event(), "error");
}

TEST(ServiceProtocol, EnforcesGraphLimitsOnInlineGraphs) {
  ServiceOptions options;
  options.limits.graph.max_vertices = 4;
  options.limits.graph.max_edges = 2;
  Harness h(std::move(options));
  h.feed(R"({"op":"submit","id":"a","graph":{"edges":[[0,9]]}})");
  EXPECT_EQ(h.last_event(), "error");
  h.feed(R"({"op":"submit","id":"a","graph":{"edges":[[0,1],[1,2],[2,3]]}})");
  EXPECT_EQ(h.last_event(), "error");

  // Even with DEFAULT limits, a tiny request declaring a huge `n` must be
  // rejected before Graph::from_edges can allocate O(n) for it.
  Harness defaults;
  defaults.feed(
      R"({"op":"submit","id":"a","graph":{"n":2147483000,"edges":[[0,1]]},"k":2})");
  EXPECT_EQ(defaults.last_event(), "error");
}

TEST(ServiceSession, SubmitStatusResultRoundTrip) {
  Harness h;
  EXPECT_TRUE(h.feed(kInlineSubmit));
  EXPECT_EQ(h.last_event(), "ack");

  EXPECT_TRUE(h.feed(R"({"op":"result","id":"job"})"));
  const JsonValue result = h.last();
  EXPECT_EQ(result.find("event")->as_string(), "result");
  EXPECT_EQ(result.find("state")->as_string(), "done");
  const auto& parts = result.find("partition")->as_array();
  ASSERT_EQ(parts.size(), 6u);
  // The 0.1-weight bridge is the obvious min cut: {0,1,2} | {3,4,5}.
  EXPECT_EQ(parts[0].as_int(), parts[1].as_int());
  EXPECT_EQ(parts[1].as_int(), parts[2].as_int());
  EXPECT_EQ(parts[3].as_int(), parts[4].as_int());
  EXPECT_EQ(parts[4].as_int(), parts[5].as_int());
  EXPECT_NE(parts[0].as_int(), parts[3].as_int());

  EXPECT_TRUE(h.feed(R"({"op":"status","id":"job"})"));
  EXPECT_EQ(h.last().find("state")->as_string(), "done");
}

TEST(ServiceSession, DuplicateIdsAndUnknownIdsError) {
  Harness h;
  h.feed(kInlineSubmit);
  EXPECT_EQ(h.last_event(), "ack");
  h.feed(kInlineSubmit);
  EXPECT_EQ(h.last_event(), "error");
  h.feed(R"({"op":"status","id":"nobody"})");
  EXPECT_EQ(h.last_event(), "error");
  h.feed(R"({"op":"cancel","id":"nobody"})");
  EXPECT_EQ(h.last_event(), "error");
}

TEST(ServiceSession, FilePolicyAndFileSubmissions) {
  const std::string path = ::testing::TempDir() + "/ffp_service_test.graph";
  write_chaco_file(make_grid2d(8, 8), path);

  ServiceOptions closed;
  closed.allow_files = false;
  Harness no_files(std::move(closed));
  const std::string submit =
      R"({"op":"submit","id":"f","graph_file":)" +
      [&] {
        std::string q;
        json_append_quoted(q, path);
        return q;
      }() +
      R"(,"k":4,"steps":300})";
  no_files.feed(submit);
  EXPECT_EQ(no_files.last_event(), "error");

  Harness open;
  open.feed(submit);
  EXPECT_EQ(open.last_event(), "ack");
  open.feed(R"({"op":"result","id":"f"})");
  EXPECT_EQ(open.last_event(), "result");
  EXPECT_EQ(open.last().find("partition")->as_array().size(), 64u);

  Harness missing;
  missing.feed(
      R"({"op":"submit","id":"f","graph_file":"/nonexistent.graph","k":2})");
  EXPECT_EQ(missing.last_event(), "error");
  std::remove(path.c_str());
}

TEST(ServiceSession, CancelMidRunReturnsAnytimeResult) {
  Harness h;
  h.feed(
      R"({"op":"submit","id":"long","graph":{"n":9,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8]]},"k":3,"steps":80000000,"seed":3})");
  EXPECT_EQ(h.last_event(), "ack");
  // Poll until running, then cancel; result must come back promptly with
  // the best-so-far partition and state "cancelled".
  h.feed(R"({"op":"cancel","id":"long"})");
  EXPECT_EQ(h.last_event(), "ack");
  h.feed(R"({"op":"result","id":"long"})");
  const JsonValue result = h.last();
  const std::string event = result.find("event")->as_string();
  if (event == "result") {
    EXPECT_EQ(result.find("state")->as_string(), "cancelled");
    EXPECT_EQ(result.find("partition")->as_array().size(), 9u);
  } else {
    // Cancelled before the runner picked it up: no partition to return.
    EXPECT_EQ(event, "error");
  }
}

TEST(ServiceSession, ShutdownEmitsByeAndStopsTheLoop) {
  Harness h;
  EXPECT_FALSE(h.feed(R"({"op":"shutdown"})"));
  EXPECT_EQ(h.last_event(), "bye");
}

TEST(ServiceSession, BlankLinesAreKeepAlives) {
  Harness h;
  EXPECT_TRUE(h.feed(""));
  EXPECT_TRUE(h.feed("   "));
  EXPECT_TRUE(h.lines.empty());
}

TEST(ServiceSession, StreamsProgressWhenEnabled) {
  ServiceOptions options;
  options.stream_progress = true;
  Harness h(std::move(options));
  h.feed(kInlineSubmit);
  h.feed(R"({"op":"result","id":"job"})");
  h.session.drain();
  int progress = 0;
  for (const auto& line : h.lines) {
    if (JsonValue::parse(line).find("event")->as_string() == "progress") {
      ++progress;
    }
  }
  EXPECT_GE(progress, 1);
}

// Acceptance criterion, end to end through the protocol: the same seeded
// job set submitted serially (await each result before the next submit)
// and concurrently (submit all, then collect) produces byte-identical
// partitions at worker budgets 1, 4 and 8.
TEST(ServiceSession, SerialVsConcurrentSubmissionByteIdentical) {
  const int kJobs = 4;
  const auto submit_line = [](int i) {
    return std::string(R"({"op":"submit","id":"j)") + std::to_string(i) +
           R"(","graph_file":")" + ::testing::TempDir() +
           R"(/ffp_det_test.graph","k":5,"steps":2500,"seed":)" +
           std::to_string(40 + i) + R"(,"restarts":2})";
  };
  const auto result_line = [](int i) {
    return std::string(R"({"op":"result","id":"j)") + std::to_string(i) +
           R"("})";
  };
  const std::string path = ::testing::TempDir() + "/ffp_det_test.graph";
  write_chaco_file(make_random_geometric(150, 0.18, 5), path);

  const auto partition_of = [](const std::string& line) {
    const JsonValue v = JsonValue::parse(line);
    EXPECT_EQ(v.find("event")->as_string(), "result") << line;
    std::string out;
    for (const auto& p : v.find("partition")->as_array()) {
      out += std::to_string(p.as_int());
      out += '\n';
    }
    return out;
  };

  // Serial reference: one runner, one worker, one job in flight at a time.
  std::vector<std::string> reference;
  {
    ThreadBudget budget(1);
    ServiceOptions options;
    options.runners = 1;
    options.budget = &budget;
    Harness h(std::move(options));
    for (int i = 0; i < kJobs; ++i) {
      h.feed(submit_line(i));
      ASSERT_EQ(h.last_event(), "ack") << h.lines.back();
      h.feed(result_line(i));
      reference.push_back(partition_of(h.lines.back()));
    }
  }

  for (const unsigned budget_size : {1u, 4u, 8u}) {
    ThreadBudget budget(budget_size);
    ServiceOptions options;
    options.runners = 3;
    options.budget = &budget;
    Harness h(std::move(options));
    for (int i = 0; i < kJobs; ++i) {
      h.feed(submit_line(i));
      ASSERT_EQ(h.last_event(), "ack") << h.lines.back();
    }
    for (int i = 0; i < kJobs; ++i) {
      h.feed(result_line(i));
      EXPECT_EQ(partition_of(h.lines.back()), reference[static_cast<std::size_t>(i)])
          << "job " << i << " diverged at budget " << budget_size;
    }
    EXPECT_LE(budget.peak_in_use(), budget.total());
  }
  std::remove(path.c_str());
}

/// Serializes a graph into the protocol's inline form (each edge once).
std::string inline_graph_json(const Graph& g) {
  std::string out = "{\"n\":" + std::to_string(g.num_vertices()) +
                    ",\"edges\":[";
  bool first = true;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.neighbors(v);
    const auto weights = g.neighbor_weights(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] < v) continue;  // other direction already emitted
      if (!first) out += ',';
      first = false;
      out += "[" + std::to_string(v) + "," + std::to_string(neighbors[i]) +
             "," + format("%.17g", weights[i]) + "]";
    }
  }
  out += "]}";
  return out;
}

// The concurrent-connections contract: N sessions hammering ONE host from
// their own threads produce byte-identical partitions to a serial replay
// of the same jobs on a fresh host — sessions share the engine, never
// each other's state.
TEST(ServiceHost, ConcurrentSessionsMatchSerialReplay) {
  const int kClients = 4;
  const int kJobsPerClient = 2;
  const std::string graph =
      inline_graph_json(make_random_geometric(80, 0.25, 9));
  const auto submit_line = [&](int client, int job) {
    return std::string(R"({"op":"submit","id":"c)") + std::to_string(client) +
           "j" + std::to_string(job) + R"(","graph":)" + graph +
           R"(,"k":4,"steps":1200,"seed":)" +
           std::to_string(100 + client * 10 + job) + "}";
  };
  const auto result_line = [](int client, int job) {
    return std::string(R"({"op":"result","id":"c)") + std::to_string(client) +
           "j" + std::to_string(job) + R"("})";
  };
  const auto partition_of = [](const std::string& line) {
    const JsonValue v = JsonValue::parse(line);
    EXPECT_EQ(v.find("event")->as_string(), "result") << line;
    std::string out;
    for (const auto& p : v.find("partition")->as_array()) {
      out += std::to_string(p.as_int());
      out += '\n';
    }
    return out;
  };

  // Serial replay: every job through one session, one at a time.
  std::map<std::string, std::string> reference;
  {
    ServiceOptions options;
    options.runners = 1;
    options.cache_capacity = 0;
    ThreadBudget budget(1);
    options.budget = &budget;
    Harness h(std::move(options));
    for (int c = 0; c < kClients; ++c) {
      for (int j = 0; j < kJobsPerClient; ++j) {
        h.feed(submit_line(c, j));
        ASSERT_EQ(h.last_event(), "ack") << h.lines.back();
        h.feed(result_line(c, j));
        reference["c" + std::to_string(c) + "j" + std::to_string(j)] =
            partition_of(h.lines.back());
      }
    }
  }

  ServiceOptions options;
  options.runners = 3;
  ThreadBudget budget(4);
  options.budget = &budget;
  ServiceHost host(std::move(options));
  std::vector<std::map<std::string, std::string>> got(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::string> lines;
        ServiceSession session(
            host, [&lines](const std::string& line) { lines.push_back(line); });
        for (int j = 0; j < kJobsPerClient; ++j) {
          session.handle_line(submit_line(c, j));
          ASSERT_EQ(JsonValue::parse(lines.back()).find("event")->as_string(),
                    "ack")
              << lines.back();
        }
        for (int j = 0; j < kJobsPerClient; ++j) {
          lines.clear();
          session.handle_line(result_line(c, j));
          got[static_cast<std::size_t>(c)]
             ["c" + std::to_string(c) + "j" + std::to_string(j)] =
                 partition_of(lines.back());
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [id, partition] : got[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(partition, reference.at(id)) << id;
    }
  }
  EXPECT_LE(budget.peak_in_use(), budget.total());
}

// The result cache through the protocol: a repeat submission (same inline
// graph, same deterministic spec, fresh id) is answered from the cache,
// and status replies expose the hit/miss counters.
TEST(ServiceHost, RepeatSubmissionsHitTheResultCache) {
  Harness h;  // default options: cache on
  h.feed(kInlineSubmit);
  ASSERT_EQ(h.last_event(), "ack");
  h.feed(R"({"op":"result","id":"job"})");
  const std::string first = h.lines.back();

  // Same graph + spec under a new id: served from the cache.
  std::string again(kInlineSubmit);
  const auto pos = again.find("\"job\"");
  again.replace(pos, 5, "\"job2\"");
  h.feed(again);
  ASSERT_EQ(h.last_event(), "ack");
  h.feed(R"({"op":"result","id":"job2"})");
  const JsonValue repeat = JsonValue::parse(h.lines.back());
  EXPECT_EQ(repeat.find("event")->as_string(), "result");

  const JsonValue first_v = JsonValue::parse(first);
  EXPECT_EQ(repeat.find("value")->as_number(),
            first_v.find("value")->as_number());

  h.feed(R"({"op":"status","id":"job2"})");
  const JsonValue status = h.last();
  ASSERT_NE(status.find("cache_hits"), nullptr);
  EXPECT_GE(status.find("cache_hits")->as_int(), 1);
  EXPECT_GE(status.find("cache_misses")->as_int(), 1);
  // Status doubles as a cache-health probe: occupancy, bound, churn.
  ASSERT_NE(status.find("cache_entries"), nullptr);
  EXPECT_GE(status.find("cache_entries")->as_int(), 1);
  ASSERT_NE(status.find("cache_capacity"), nullptr);
  EXPECT_GT(status.find("cache_capacity")->as_int(), 0);
  ASSERT_NE(status.find("cache_evictions"), nullptr);
  EXPECT_GE(status.find("cache_evictions")->as_int(), 0);
  // ... and an elite-archive probe: the finished job fed its population,
  // and archive_best reports this job's (digest, k, objective) floor.
  ASSERT_NE(status.find("archive_elites"), nullptr);
  EXPECT_GE(status.find("archive_elites")->as_int(), 1);
  ASSERT_NE(status.find("archive_populations"), nullptr);
  EXPECT_GE(status.find("archive_populations")->as_int(), 1);
  ASSERT_NE(status.find("archive_admitted"), nullptr);
  ASSERT_NE(status.find("archive_best"), nullptr);
  EXPECT_EQ(status.find("archive_best")->as_number(),
            JsonValue::parse(first).find("value")->as_number());
  EXPECT_EQ(h.host.engine().cache_counters().hits, 1);
}

// Every error event names its place in the retryable-vs-fatal taxonomy —
// clients dispatch on `code`/`retryable`, not on message prose.
TEST(ServiceProtocol, ErrorEventsCarryTheCodeTaxonomy) {
  Harness h;
  h.feed(R"({"op":"status","id":"nobody"})");
  JsonValue err = h.last();
  ASSERT_EQ(err.find("event")->as_string(), "error");
  ASSERT_NE(err.find("code"), nullptr) << h.lines.back();
  EXPECT_EQ(err.find("code")->as_string(), "unknown_job");
  ASSERT_NE(err.find("retryable"), nullptr);
  EXPECT_FALSE(err.find("retryable")->as_bool());

  h.feed("this is not json");
  err = h.last();
  ASSERT_EQ(err.find("event")->as_string(), "error");
  EXPECT_EQ(err.find("code")->as_string(), "bad_request");
  EXPECT_FALSE(err.find("retryable")->as_bool());
}

// The router reads only this head of a response line.
TEST(ServiceProtocol, EventHeadReadsEventAndIdFromTheFormattedPrefix) {
  const EventHead ack = read_event_head(format_ack("a\"b\\c"));
  EXPECT_EQ(ack.event, "ack");
  EXPECT_EQ(ack.id, "a\"b\\c");  // escapes decoded
  const EventHead shed = read_event_head(
      format_error("", "full", ErrCode::Overloaded, 250));
  EXPECT_EQ(shed.event, "error");
  EXPECT_EQ(shed.id, "");
  const EventHead bye = read_event_head(format_bye());
  EXPECT_EQ(bye.event, "bye");
  EXPECT_EQ(bye.id, "");
  for (const char* bad : {"", "garbage", R"({"id":"x","event":"ack"})",
                          R"({"event":"ack","id":"unterminated)",
                          R"({"event":7})"}) {
    EXPECT_THROW(read_event_head(bad), Error) << bad;
  }
}

// The remote-shutdown gate: a session whose policy forbids shutdown
// answers with a fatal `forbidden` error and KEEPS SERVING — the
// connection is not torn down, and real work still goes through.
TEST(ServiceSession, ShutdownGatedBySessionPolicy) {
  ServiceHost host{ServiceOptions{}};
  std::vector<std::string> lines;
  SessionPolicy policy;
  policy.allow_shutdown = false;
  ServiceSession session(
      host, [&lines](const std::string& line) { lines.push_back(line); },
      policy);

  EXPECT_TRUE(session.handle_line(R"({"op":"shutdown"})"));  // still serving
  const JsonValue err = JsonValue::parse(lines.back());
  ASSERT_EQ(err.find("event")->as_string(), "error");
  EXPECT_EQ(err.find("code")->as_string(), "forbidden");
  EXPECT_FALSE(err.find("retryable")->as_bool());

  session.handle_line(kInlineSubmit);
  EXPECT_EQ(JsonValue::parse(lines.back()).find("event")->as_string(), "ack");
}

TEST(ServiceProtocol, QueueTtlFieldValidatedAndAccepted) {
  Harness h;
  h.feed(
      R"({"op":"submit","id":"t0","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"k":2,"steps":300,"queue_ttl_ms":-5})");
  EXPECT_EQ(h.last_event(), "error");
  h.feed(
      R"({"op":"submit","id":"t1","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"k":2,"steps":300,"queue_ttl_ms":"soon"})");
  EXPECT_EQ(h.last_event(), "error");
  h.feed(
      R"({"op":"submit","id":"t2","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"k":2,"steps":300,"queue_ttl_ms":60000})");
  EXPECT_EQ(h.last_event(), "ack");
  h.feed(R"({"op":"result","id":"t2"})");
  EXPECT_EQ(h.last_event(), "result");
}

TEST(ServiceProtocol, RestartsFieldValidatedAndAccepted) {
  Harness h;
  h.feed(
      R"({"op":"submit","id":"r0","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"k":2,"steps":300,"restarts":0})");
  EXPECT_EQ(h.last_event(), "error");
  h.feed(
      R"({"op":"submit","id":"r","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"k":2,"steps":300,"restarts":3})");
  EXPECT_EQ(h.last_event(), "ack");
  h.feed(R"({"op":"result","id":"r"})");
  EXPECT_EQ(h.last_event(), "result");
}

// The removed intra-run engine's knobs are unknown keys: a submit carrying
// "threads", or a method spec with a threads= option, is a bad_request
// naming it, and nothing reaches the scheduler.
TEST(ServiceProtocol, RejectsTheRemovedThreadsKnobs) {
  Harness h;
  for (const std::string extra :
       {R"("threads":2)", R"("method":"fusion_fission:threads=2")"}) {
    h.feed(
        R"({"op":"submit","id":"t","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"k":2,"steps":300,)" +
        extra + "}");
    EXPECT_EQ(h.last_event(), "error") << extra;
    EXPECT_EQ(h.last().find("code")->as_string(), "bad_request") << extra;
    EXPECT_NE(h.last_message().find("threads"), std::string::npos)
        << h.last_message();
  }
  EXPECT_EQ(h.host.engine().scheduler().jobs_completed(), 0);
}

// Status pins the serving counters (event loop + migration observability):
// the KEY SET is part of the wire contract — dashboards and the CI smoke
// grep these names, so renaming one is a protocol change, not a refactor.
TEST(ServiceProtocol, StatusCarriesServeCounters) {
  Harness h;
  h.feed(kInlineSubmit);
  h.feed(R"({"op":"status","id":"job"})");
  const JsonValue status = h.last();
  for (const char* key :
       {"conns_open", "conns_total", "loop_wakeups", "sheds",
        "migrations_sent", "migrations_received"}) {
    ASSERT_NE(status.find(key), nullptr) << key;
    EXPECT_GE(status.find(key)->as_int(), 0) << key;
  }
}

// The migrate_elite op end to end in one process: a foreign elite is
// admitted into the archive (status-visible) and then seeds the digest's
// population floor reported by archive_best.
TEST(ServiceSession, MigrateEliteAdmitsIntoTheArchive) {
  Harness h;
  // Solve once so the population (digest, k=2, cut) exists and we know
  // the digest the submit routed to... actually the op creates the
  // population on demand; push into a fresh one.
  h.feed(
      R"({"op":"migrate_elite","digest":"deadbeef","k":2,"objective":"cut",)"
      R"("value":4.5,"assignment":[0,0,1,1,0,1]})");
  const JsonValue admit = h.last();
  ASSERT_EQ(admit.find("event")->as_string(), "migrate") << h.lines.back();
  EXPECT_TRUE(admit.find("admitted")->as_bool());

  // The same elite again: a duplicate is rejected by the archive's
  // near-dup rule, answered (not errored) so gossip settles.
  h.feed(
      R"({"op":"migrate_elite","digest":"deadbeef","k":2,"objective":"cut",)"
      R"("value":4.5,"assignment":[0,0,1,1,0,1]})");
  EXPECT_EQ(h.last().find("event")->as_string(), "migrate");
  EXPECT_FALSE(h.last().find("admitted")->as_bool());
  EXPECT_EQ(h.host.serve_stats().snapshot().migrations_received, 2);

  // Status shows the archive grew (a second population appears next to
  // the job's own) even though no job carried this digest — migration is
  // archive traffic, not job traffic.
  h.feed(kInlineSubmit);
  h.feed(R"({"op":"result","id":"job"})");
  h.feed(R"({"op":"status","id":"job"})");
  EXPECT_GE(h.last().find("archive_populations")->as_int(), 2);
}

TEST(ServiceSession, MigrateEliteForbiddenWhenArchiveDisabled) {
  ServiceOptions options;
  options.evolve_capacity = 0;
  Harness h(std::move(options));
  h.feed(
      R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut",)"
      R"("value":1.0,"assignment":[0,1]})");
  const JsonValue err = h.last();
  ASSERT_EQ(err.find("event")->as_string(), "error");
  EXPECT_EQ(err.find("code")->as_string(), "forbidden");
}

TEST(ServiceProtocol, MigrateEliteRejectsMalformedPushes) {
  Harness h;
  const std::vector<std::string> bad = {
      // missing fields
      R"({"op":"migrate_elite"})",
      R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut","value":1.0})",
      R"({"op":"migrate_elite","digest":"1f","k":2,"value":1.0,"assignment":[0,1]})",
      // digest not hex / too long
      R"({"op":"migrate_elite","digest":"xyz","k":2,"objective":"cut","value":1.0,"assignment":[0,1]})",
      R"({"op":"migrate_elite","digest":"00112233445566778","k":2,"objective":"cut","value":1.0,"assignment":[0,1]})",
      // parts out of [0, k)
      R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut","value":1.0,"assignment":[0,2]})",
      R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut","value":1.0,"assignment":[0,-1]})",
      // value not finite / not a number
      R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut","value":"low","assignment":[0,1]})",
      // unknown key
      R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut","value":1.0,"assignment":[0,1],"extra":1})",
      // empty assignment
      R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut","value":1.0,"assignment":[]})",
  };
  for (const auto& line : bad) {
    EXPECT_TRUE(h.feed(line)) << line;
    EXPECT_EQ(h.last_event(), "error") << line << " -> " << h.lines.back();
  }
}

// format_migrate_elite is the only producer of the push line; it must
// round-trip through the strict parser (the receiving shard's view).
TEST(ServiceProtocol, MigrateEliteWireLineRoundTrips) {
  const evolve::PopulationKey key{0x00c0ffee12345678ull, 3,
                                  ObjectiveKind::Cut};
  const std::vector<int> parts = {0, 1, 2, 1, 0};
  const std::string line = format_migrate_elite(key, 6.25, parts);
  const Request request = parse_request(line, ProtocolLimits{});
  EXPECT_EQ(request.op, RequestOp::MigrateElite);
  EXPECT_EQ(request.digest, key.digest);
  EXPECT_EQ(request.spec.k, 3);
  EXPECT_EQ(request.spec.objective, ObjectiveKind::Cut);
  EXPECT_EQ(request.migrate_value, 6.25);
  ASSERT_NE(request.migrate_assignment, nullptr);
  EXPECT_EQ(*request.migrate_assignment, parts);
}

}  // namespace
}  // namespace ffp
