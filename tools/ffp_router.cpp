// ffp_router — the scale-out front end.
//
//   ffp_router --listen 17900 --shards 17917,17918,17919
//
// Speaks the same line-delimited JSON protocol as ffp_serve and forwards
// every request to one of the backend shards, chosen by graph digest on a
// consistent-hash ring — repeat traffic on a graph always lands on the
// same shard, so that shard's result cache and elite archive stay hot.
// Responses relay verbatim; the router holds no solver state. Clients and
// shard links alike are served by one epoll thread (src/net/event_loop.hpp).
//
// Failover: a shard that refuses or drops connections is cooled down for
// --down-cooldown-ms and submissions fail over along the ring; ops pinned
// to a dead shard come back as retryable errors that a ffp_client retry
// loop resubmits (idempotent via the shard result caches). See
// src/shard/router.hpp for the full failure story.
#include <csignal>
#include <cstdio>

#include "service/net.hpp"
#include "shard/router.hpp"
#include "util/args.hpp"

namespace {

ffp::shard::Router* g_router = nullptr;

extern "C" void on_stop_signal(int) {
  if (g_router != nullptr) g_router->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  ffp::ArgParser args;
  args.flag("listen", "0", "TCP port on 127.0.0.1 (0 = ephemeral)")
      .flag("shards", "", "comma-separated backend ffp_serve ports "
                          "(required)")
      .flag("max-clients", "64", "concurrent client connections; extra "
                                 "connections are shed, not queued")
      .flag("idle-timeout-ms", "30000", "reap client connections idle this "
                                        "long (0 = never)")
      .flag("write-timeout-ms", "10000", "per-line write deadline, client "
                                         "and shard (0 = unbounded)")
      .flag("io-timeout-ms", "0", "per-line shard read deadline (0 = wait "
                                  "forever; result ops block for the solve)")
      .flag("down-cooldown-ms", "2000", "how long a failed shard sits out "
                                        "of the rotation")
      .flag("vnodes", "64", "consistent-hash ring points per shard")
      .flag("max-vertices", "0", "per-graph vertex ceiling (0 = VertexId "
                                 "range)")
      .flag("max-edges", "0", "per-graph edge ceiling (0 = unlimited)")
      .toggle("allow-remote-shutdown",
              "honor {\"op\":\"shutdown\"} from clients (stops the ROUTER "
              "only; shards stay up)")
      .toggle("help", "show this help");
  try {
    args.parse(argc, argv);
    if (args.get_bool("help")) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    ffp::shard::RouterOptions options;
    options.loop.port = static_cast<int>(args.get_int("listen", 0, 65535));
    options.shard_ports = ffp::parse_ports(args.get("shards"), "--shards");
    if (options.shard_ports.empty()) {
      throw ffp::Error("--shards needs at least one backend port");
    }
    const std::int64_t max_clients = args.get_int("max-clients", 1, 4096);
    options.loop.max_clients = static_cast<unsigned>(max_clients);
    options.loop.idle_timeout_ms =
        static_cast<double>(args.get_int("idle-timeout-ms", 0));
    options.loop.write_timeout_ms =
        static_cast<double>(args.get_int("write-timeout-ms", 0));
    options.backend_io_timeout_ms =
        static_cast<double>(args.get_int("io-timeout-ms", 0));
    options.down_cooldown_ms =
        static_cast<double>(args.get_int("down-cooldown-ms", 1));
    options.vnodes = static_cast<int>(args.get_int("vnodes", 1, 4096));
    options.allow_shutdown = args.get_bool("allow-remote-shutdown");
    options.limits.graph.max_vertices = args.get_int("max-vertices", 0);
    options.limits.graph.max_edges = args.get_int("max-edges", 0);

    ffp::shard::Router router(std::move(options));
    g_router = &router;
    std::signal(SIGTERM, on_stop_signal);
    std::signal(SIGINT, on_stop_signal);
    std::signal(SIGPIPE, SIG_IGN);
    std::fprintf(stderr,
                 "ffp_router: listening on 127.0.0.1:%d (%zu shard(s), up "
                 "to %lld clients)\n",
                 router.port(), router.shards(),
                 static_cast<long long>(max_clients));
    router.run();
    g_router = nullptr;
    std::fprintf(stderr, "ffp_router: drained, exiting\n");
    return 0;
  } catch (const ffp::Error& e) {
    std::fprintf(stderr, "ffp_router: %s\n", e.what());
    return 1;
  }
}
