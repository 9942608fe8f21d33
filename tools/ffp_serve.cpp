// ffp_serve — the partitioning service daemon.
//
//   ffp_serve --listen 17917 --runners 2 --budget 8 --max-clients 8 --stream
//   ffp_serve < requests.jsonl > responses.jsonl        # pipe mode
//
// Speaks the line-delimited JSON protocol (src/service/protocol.hpp):
// submit / status / cancel / result / shutdown in, ack / status / result /
// progress / error events out. Without --listen it serves exactly one
// session over stdin/stdout — the zero-config mode scripts and tests pipe
// into. With --listen it binds 127.0.0.1:<port> (0 picks an ephemeral
// port, printed on stderr) and serves up to --max-clients connections
// CONCURRENTLY on one epoll thread (src/net/event_loop.hpp), every session
// submitting into one shared ServiceHost — one JobScheduler, one
// ThreadBudget, one result cache — until SIGTERM/SIGINT or an authorized
// {"op":"shutdown"}. --event-loop is accepted and ignored: the loop is the
// only TCP transport.
//
// Concurrency model: --runners jobs execute at once across ALL clients,
// and every runner and restart portfolio leases its workers from the
// process-wide ThreadBudget capped by --budget — so clients × runners ×
// per-job restarts can never exceed the budget no matter what anyone asks
// for. Deterministic repeat
// submissions are answered from the --cache-entries LRU (status replies
// carry hit/miss counters). Input is untrusted: requests are strictly
// validated, graph files go through the hardened readers under
// --max-vertices/--max-edges, and --no-files restricts submissions to
// inline graphs.
//
// Failure hardening (net/event_loop.hpp has the machinery):
//   * connections beyond --max-clients are told "overloaded" (with a
//     retry-after hint) and closed immediately — never queued;
//   * more than --max-queued waiting jobs shed submits the same way;
//   * a connection idle past --idle-timeout-ms, and owed no reply, is
//     reaped, so a silent client cannot hold a slot;
//   * every response write is bounded by --write-timeout-ms;
//   * SIGTERM/SIGINT drain gracefully: stop accepting, cancel queued
//     jobs, let running jobs finish with best-so-far semantics;
//   * {"op":"shutdown"} from a TCP peer is FORBIDDEN unless the server
//     was started with --allow-remote-shutdown (pipe mode — the
//     operator's own terminal — always honors it).
//
// Scale-out: connections cost no threads, so --max-clients can go to the
// thousands; --peers lists sibling shard ports and turns on periodic elite
// migration (src/shard/migrate.hpp).
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "service/service.hpp"
#include "service/thread_budget.hpp"
#include "shard/migrate.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"

namespace {

ffp::ServiceOptions host_options(const ffp::ArgParser& args) {
  ffp::ServiceOptions options;
  options.runners = static_cast<unsigned>(args.get_int("runners"));
  options.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache-entries"));
  options.stream_progress = args.get_bool("stream");
  options.allow_files = !args.get_bool("no-files");
  options.max_queued = static_cast<std::size_t>(args.get_int("max-queued"));
  options.state_dir = args.get("state-dir");
  options.evolve_capacity =
      static_cast<std::size_t>(args.get_int("evolve-elites"));
  options.limits.graph.max_vertices = args.get_int("max-vertices");
  options.limits.graph.max_edges = args.get_int("max-edges");
  FFP_CHECK(options.limits.graph.max_vertices >= 0,
            "--max-vertices must be >= 0");
  FFP_CHECK(options.limits.graph.max_edges >= 0, "--max-edges must be >= 0");
  return options;
}

/// One session over stdin/stdout. Returns when the client shuts down or
/// the pipe closes. The pipe is the operator's own terminal, so shutdown
/// stays allowed and teardown waits are unbounded.
void serve_stdio(const ffp::ArgParser& args) {
  ffp::ServiceHost host(host_options(args));
  ffp::SessionPolicy policy;
  policy.allow_shutdown = true;
  policy.teardown_wait_ms = 0;  // trusted caller; wait for everything
  ffp::ServiceSession session(
      host,
      [](const std::string& line) {
        std::fputs(line.c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);  // clients poll line by line; never buffer
      },
      policy);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!session.handle_line(line)) return;
  }
  // EOF without shutdown: finish what was accepted so piped batch runs
  // (generate requests | ffp_serve > responses) still get their results.
  session.drain();
}

/// The signal path: SIGTERM/SIGINT signal the server's eventfd
/// (async-signal-safe) and the serving loop drains.
ffp::EventLoopServer* g_server = nullptr;

extern "C" void on_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// Inter-shard elite migration rides along the server: a nullptr when
/// --peers is empty, a running EliteMigrator otherwise.
std::unique_ptr<ffp::shard::EliteMigrator> make_migrator(
    const ffp::ArgParser& args, ffp::ServiceHost& host) {
  const std::vector<int> peers =
      ffp::parse_ports(args.get("peers"), "--peers");
  if (peers.empty()) return nullptr;
  const std::int64_t period = args.get_int("migrate-every-ms");
  FFP_CHECK(period >= 1, "--migrate-every-ms must be >= 1");
  ffp::shard::MigrateOptions options;
  options.peer_ports = peers;
  options.period_ms = static_cast<double>(period);
  std::fprintf(stderr, "ffp_serve: migrating elites to %zu peer(s) every "
               "%lld ms\n", peers.size(), static_cast<long long>(period));
  return std::make_unique<ffp::shard::EliteMigrator>(
      host.engine(), host.serve_stats(), std::move(options));
}

int serve_tcp(const ffp::ArgParser& args, int port) {
  const std::int64_t max_clients = args.get_int("max-clients");
  FFP_CHECK(max_clients >= 1 && max_clients <= 4096,
            "--max-clients must be in [1, 4096]");
  const std::int64_t idle_ms = args.get_int("idle-timeout-ms");
  FFP_CHECK(idle_ms >= 0, "--idle-timeout-ms must be >= 0 (0 = no reaping)");
  const std::int64_t write_ms = args.get_int("write-timeout-ms");
  FFP_CHECK(write_ms >= 0, "--write-timeout-ms must be >= 0 (0 = unbounded)");

  ffp::ServiceHost host(host_options(args));
  if (!args.get("state-dir").empty()) {
    std::fprintf(stderr, "ffp_serve: recovered %zu journaled job(s)\n",
                 host.engine().recovered_jobs());
  }
  const std::unique_ptr<ffp::shard::EliteMigrator> migrator =
      make_migrator(args, host);

  std::signal(SIGPIPE, SIG_IGN);  // torn peers surface as EPIPE, not death

  ffp::EventLoopOptions options;
  options.port = port;
  options.max_clients = static_cast<unsigned>(max_clients);
  options.idle_timeout_ms = static_cast<double>(idle_ms);
  options.write_timeout_ms = static_cast<double>(write_ms);
  ffp::SessionPolicy policy;
  policy.allow_shutdown = args.get_bool("allow-remote-shutdown");
  ffp::EventLoopServer server(host.serve_stats(), options,
                              ffp::serve_sessions(host, policy));

  g_server = &server;
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
  std::fprintf(stderr,
               "ffp_serve: listening on 127.0.0.1:%d (up to %lld concurrent "
               "clients%s)\n",
               server.port(), static_cast<long long>(max_clients),
               policy.allow_shutdown ? ", remote shutdown allowed" : "");
  server.run();
  g_server = nullptr;
  // Queued jobs are cancelled, running jobs finish (early, with
  // best-so-far, when their session's teardown cancelled them).
  host.engine().scheduler().shutdown();
  std::fprintf(stderr, "ffp_serve: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ffp::ArgParser args;
  args.flag("listen", "", "TCP port on 127.0.0.1 (0 = ephemeral; "
                          "unset = serve stdin/stdout)")
      .flag("runners", "1", "concurrent jobs (shared by all clients)")
      .flag("budget", "0", "process-wide worker-thread budget "
                           "(0 = hardware concurrency)")
      .flag("max-clients", "8", "concurrent TCP connections (--listen mode); "
                                "extra connections are shed, not queued")
      .flag("max-queued", "0", "waiting-job ceiling across all clients; "
                               "submits beyond it are shed (0 = unbounded)")
      .flag("idle-timeout-ms", "30000", "reap connections idle this long "
                                        "(0 = never)")
      .flag("write-timeout-ms", "10000", "per-response write deadline "
                                         "(0 = unbounded)")
      .flag("cache-entries", "64", "result-cache entries (0 = no cache)")
      .flag("evolve-elites", "8", "elite-archive capacity per (graph, k, "
                                  "objective) population; feeds "
                                  "\"evolve\":true submissions (0 = off; "
                                  "persists under --state-dir)")
      .flag("state-dir", "", "durable-state directory: write-ahead job "
                             "journal, persisted results, solve checkpoints; "
                             "startup replays the journal and resubmits "
                             "unfinished jobs (unset = in-memory only)")
      .flag("max-vertices", "0", "per-graph vertex ceiling (0 = VertexId range)")
      .flag("max-edges", "0", "per-graph edge ceiling (0 = unlimited)")
      .flag("peers", "", "comma-separated peer shard ports; best elites "
                         "migrate to them every --migrate-every-ms")
      .flag("migrate-every-ms", "1000", "elite-migration tick interval")
      .toggle("event-loop", "accepted and ignored: --listen always serves "
                            "every connection on one epoll thread")
      .toggle("stream", "stream progress events as improvements happen")
      .toggle("no-files", "reject graph_file submissions (inline graphs only)")
      .toggle("allow-remote-shutdown",
              "honor {\"op\":\"shutdown\"} from TCP clients (pipe mode "
              "always honors it)")
      .toggle("help", "show this help");
  try {
    args.parse(argc, argv);
    if (args.get_bool("help")) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    const std::int64_t runners = args.get_int("runners");
    FFP_CHECK(runners >= 1, "--runners must be >= 1");
    const std::int64_t cache_entries = args.get_int("cache-entries");
    FFP_CHECK(cache_entries >= 0 && cache_entries <= 1 << 20,
              "--cache-entries must be in [0, 2^20]");
    const std::int64_t evolve_elites = args.get_int("evolve-elites");
    FFP_CHECK(evolve_elites >= 0 && evolve_elites <= 4096,
              "--evolve-elites must be in [0, 4096]");
    const std::int64_t max_queued = args.get_int("max-queued");
    FFP_CHECK(max_queued >= 0 && max_queued <= 1 << 20,
              "--max-queued must be in [0, 2^20] (0 = unbounded)");
    const std::int64_t budget = args.get_int("budget");
    FFP_CHECK(budget >= 0 && budget <= 1 << 20,
              "--budget must be in [0, 2^20] (0 = hardware concurrency)");
    ffp::ThreadBudget::set_process_total(static_cast<unsigned>(budget));

    const std::string listen = args.get("listen");
    if (listen.empty()) {
      serve_stdio(args);
      return 0;
    }
    const auto port = ffp::parse_int(listen);
    FFP_CHECK(port.has_value() && *port >= 0 && *port <= 65535,
              "--listen must be a port number (0..65535)");
    return serve_tcp(args, static_cast<int>(*port));
  } catch (const ffp::Error& e) {
    std::fprintf(stderr, "ffp_serve: %s\n", e.what());
    return 1;
  }
}
