// ffp_client — submit/poll/batch driver for ffp_serve, used by the CI
// smoke job and by hand when poking at a running daemon.
//
//   # 4 jobs on one graph, distinct seeds, partitions written per job:
//   ffp_client --connect 17917 --graph mesh.graph --k 8 --jobs 4
//              --seed 7 --steps 20000 --out-dir parts/
//
//   # replay raw protocol lines from a file (one request per line):
//   ffp_client --connect 17917 --script requests.jsonl
//
// In graph mode the client submits --jobs copies of the job (ids j0, j1,
// …, seeds seed, seed+1, …) through the resilient ServiceClient
// (service/client.hpp): retryable failures — shed connections, queue
// expiry, torn connections, server restarts — are retried up to --retries
// times with deterministic exponential backoff (--backoff-ms cap growth,
// jitter seeded by --retry-seed), honoring any server retry-after hint.
// Resubmission after a torn connection is idempotent: a job that already
// completed comes back as a server-side cache hit with byte-identical
// results. Every response line is echoed to stdout, so logs double as
// protocol transcripts; backoffs are logged to stderr. Exit status is 0
// only if every submitted job came back with a result.
//
// Script mode stays a raw replay (no retries): it exists to prod the
// protocol, including with malformed lines.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/io.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"

namespace {

std::string submit_line(const ffp::ArgParser& args, const std::string& id,
                        std::uint64_t seed) {
  std::string out = "{\"op\":\"submit\",\"id\":";
  ffp::json_append_quoted(out, id);
  out += ",\"graph_file\":";
  ffp::json_append_quoted(out, args.get("graph"));
  out += ",\"method\":";
  ffp::json_append_quoted(out, args.get("method"));
  out += ",\"objective\":";
  ffp::json_append_quoted(out, args.get("objective"));
  out += ",\"k\":" + std::to_string(args.get_int("k"));
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"steps\":" + std::to_string(args.get_int("steps"));
  out += ",\"priority\":" + std::to_string(args.get_int("priority"));
  if (args.get_int("restarts") > 1) {
    out += ",\"restarts\":" + std::to_string(args.get_int("restarts"));
  }
  if (args.get_int("queue-ttl-ms") > 0) {
    out += ",\"queue_ttl_ms\":" + std::to_string(args.get_int("queue-ttl-ms"));
  }
  if (args.get_int("checkpoint-every-ms") > 0) {
    out += ",\"checkpoint_every_ms\":" +
           std::to_string(args.get_int("checkpoint-every-ms"));
  }
  if (args.get_bool("warm-start")) out += ",\"warm_start\":true";
  if (args.get_bool("evolve")) out += ",\"evolve\":true";
  out += "}";
  return out;
}

/// Extracts the partition array from a raw `result` event line and writes
/// it as a partition file.
void write_result_partition(const std::string& result_line,
                            const std::string& id,
                            const std::string& out_path) {
  const ffp::JsonValue event =
      ffp::JsonValue::parse(result_line, ffp::response_json_limits());
  const ffp::JsonValue* partition = event.find("partition");
  if (partition == nullptr || !partition->is_array()) {
    throw ffp::Error("result event for '" + id + "' has no partition");
  }
  const auto& parts_json = partition->as_array();
  std::vector<int> parts;
  parts.reserve(parts_json.size());
  for (const auto& p : parts_json) {
    parts.push_back(static_cast<int>(p.as_int()));
  }
  ffp::write_partition_file(parts, out_path);
}

int run_script(const ffp::FdHandle& conn, ffp::LineReader& reader,
               const std::string& path, bool send_shutdown) {
  std::ifstream in(path);
  FFP_CHECK(in.good(), "cannot open script: ", path);
  std::string line;
  std::int64_t sent = 0;
  while (std::getline(in, line)) {
    if (ffp::trim(line).empty()) continue;
    ffp::write_line(conn, line);
    ++sent;
  }
  if (send_shutdown) ffp::write_line(conn, "{\"op\":\"shutdown\"}");
  // Half-close so the server sees EOF after the last request, drains the
  // session, and closes — without this (and without a shutdown op in the
  // script) both sides would wait on each other forever.
  ffp::shutdown_write(conn);
  std::string reply;
  while (sent > 0 && reader.next(reply)) {
    std::printf("%s\n", reply.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ffp::ArgParser args;
  args.flag("connect", "", "ffp_serve port on 127.0.0.1 (required)")
      .flag("script", "", "file of raw request lines to replay (no retries)")
      .flag("graph", "", "graph file to submit (server-side path)")
      .flag("jobs", "1", "number of jobs to submit (ids j0..jN-1)")
      .flag("k", "8", "parts per job")
      .flag("method", "fusion_fission", "registry solver spec")
      .flag("objective", "mcut", "cut|ncut|mcut|rcut")
      .flag("seed", "1", "seed of job j0; job ji uses seed+i")
      .flag("steps", "10000", "deterministic step budget per job")
      .flag("priority", "0", "job priority (higher runs first)")
      .flag("restarts", "1", "restart portfolio width per job")
      .flag("queue-ttl-ms", "0", "per-job queue TTL (0 = none)")
      .flag("checkpoint-every-ms", "0", "durable checkpoint interval per job "
                                        "(needs a --state-dir server; 0 = off)")
      .toggle("warm-start", "resume each job from its durable checkpoint "
                            "when one exists")
      .toggle("evolve", "seed each job's restarts from the server's elite "
                        "archive and feed results back (needs a server with "
                        "--evolve-elites > 0)")
      .flag("retries", "5", "connection attempts before giving up")
      .flag("backoff-ms", "100", "base retry backoff (doubles per attempt, "
                                 "capped at 50x, jittered)")
      .flag("retry-seed", "1", "jitter seed (deterministic backoff schedule)")
      .flag("timeout-ms", "0", "per-read/write deadline awaiting responses "
                               "(0 = block forever)")
      .flag("out-dir", "", "write each partition to <out-dir>/<id>.part")
      .toggle("shutdown", "send shutdown after the last result")
      .toggle("help", "show this help");
  try {
    args.parse(argc, argv);
    if (args.get_bool("help")) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    const auto port = ffp::parse_int(args.get("connect"));
    FFP_CHECK(port.has_value() && *port > 0 && *port <= 65535,
              "--connect must be a port number");

    if (!args.get("script").empty()) {
      ffp::FdHandle conn = ffp::tcp_connect(static_cast<int>(*port));
      ffp::LineReader reader(conn);
      return run_script(conn, reader, args.get("script"),
                        args.get_bool("shutdown"));
    }

    FFP_CHECK(!args.get("graph").empty(),
              "need --graph (or --script) to submit jobs");
    const std::int64_t jobs = args.get_int("jobs");
    FFP_CHECK(jobs >= 1, "--jobs must be >= 1");
    FFP_CHECK(args.get_int("restarts") >= 1, "--restarts must be >= 1");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const std::int64_t retries = args.get_int("retries");
    FFP_CHECK(retries >= 1, "--retries must be >= 1");
    const std::int64_t backoff_ms = args.get_int("backoff-ms");
    FFP_CHECK(backoff_ms >= 1, "--backoff-ms must be >= 1");
    const std::int64_t timeout_ms = args.get_int("timeout-ms");
    FFP_CHECK(timeout_ms >= 0, "--timeout-ms must be >= 0");

    ffp::ServiceClientOptions options;
    options.port = static_cast<int>(*port);
    options.retry.max_attempts = static_cast<int>(retries);
    options.retry.base_ms = static_cast<double>(backoff_ms);
    options.retry.max_ms = static_cast<double>(backoff_ms) * 50;
    options.retry.seed = static_cast<std::uint64_t>(args.get_int("retry-seed"));
    options.io_timeout_ms = static_cast<double>(timeout_ms);
    options.on_line = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
    options.on_backoff = [](int attempt, double wait_ms,
                            const std::string& why) {
      std::fprintf(stderr,
                   "ffp_client: attempt %d failed (%s); retrying in %.0f ms\n",
                   attempt, why.c_str(), wait_ms);
    };

    std::vector<ffp::ClientJob> batch;
    batch.reserve(static_cast<std::size_t>(jobs));
    for (std::int64_t i = 0; i < jobs; ++i) {
      const std::string id = "j" + std::to_string(i);
      batch.push_back(
          {id, submit_line(args, id, seed + static_cast<std::uint64_t>(i))});
    }

    ffp::ServiceClient client(options);
    const std::vector<ffp::ClientResult> results = client.run(batch);

    std::size_t failed = 0;
    const std::string out_dir = args.get("out-dir");
    for (const ffp::ClientResult& r : results) {
      if (!r.ok) {
        ++failed;
        std::fprintf(stderr, "ffp_client: job '%s' failed [%.*s]: %s\n",
                     r.id.c_str(),
                     static_cast<int>(ffp::err_name(r.code).size()),
                     ffp::err_name(r.code).data(), r.error.c_str());
        continue;
      }
      if (!out_dir.empty()) {
        write_result_partition(r.result_line, r.id,
                               out_dir + "/" + r.id + ".part");
      }
    }
    if (args.get_bool("shutdown")) {
      // Best-effort: the server may gate remote shutdown (Forbidden) or
      // be gone already; neither should fail a batch that succeeded.
      try {
        ffp::FdHandle conn = ffp::tcp_connect(static_cast<int>(*port));
        ffp::LineReader reader(conn);
        if (timeout_ms > 0) {
          reader.set_timeout_ms(static_cast<double>(timeout_ms));
        }
        ffp::write_line(conn, "{\"op\":\"shutdown\"}");
        std::string line;
        while (reader.next(line)) {
          std::printf("%s\n", line.c_str());
        }
      } catch (const ffp::Error& e) {
        std::fprintf(stderr, "ffp_client: shutdown send failed: %s\n",
                     e.what());
      }
    }
    if (failed > 0) {
      std::fprintf(stderr, "ffp_client: %zu job(s) failed\n", failed);
      return 1;
    }
    return 0;
  } catch (const ffp::Error& e) {
    std::fprintf(stderr, "ffp_client: %s\n", e.what());
    return 1;
  }
}
