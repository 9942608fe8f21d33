// Router — the scale-out front end (ffp_router): accepts the same wire
// protocol as ffp_serve and forwards each request to one of N backend
// shards, chosen by graph digest on a consistent-hash ring (hash_ring.hpp)
// so that repeat traffic on one graph always hits the same shard — that
// shard's result cache answers the repeats and its elite archive keeps
// learning the graph. The router holds no solver state at all: every
// response line from the shard is relayed to the client verbatim.
//
// Transport: the router is an EventLoopServer (net/event_loop.hpp) with a
// relay as each client's line handler, so it shares ffp_serve's shedding,
// idle reaping, write deadlines, drain and FFP_FAULT points. Each relay
// dials its shard links through the same loop, lazily, one per shard and
// reused across ops (the shard sees one session per client); links are
// exempt from max_clients and the idle reaper, and
// `backend_io_timeout_ms` bounds each line while an op is in flight. A
// client has at most one op in flight: the loop holds its further lines
// until the op settles, so backpressure reaches the client as before.
//
// Routing identity: inline graphs route by their content digest (the same
// api::graph_digest the cache keys on); graph_file submissions route by a
// hash of the path string — the router never opens graph files, and same
// path means same shard means the digest computed THERE is hot.
//
// Failure story (the retryable-error taxonomy end to end):
//   * A shard that refuses, resets, or times out is marked down for
//     `down_cooldown_ms` and the submit fails over along the ring's
//     preference order in the same request — the client sees the ack from
//     whichever shard took the job.
//   * Ops pinned to a shard that died mid-flight (status/cancel/result of
//     a routed job) are answered with a retryable `shutting_down` error;
//     a ServiceClient resubmits the job on its next attempt and the ring
//     routes it to the failover shard — idempotent via the shard caches.
//   * A shard's own connection-level rejection (overload shed, drain)
//     during an op relays verbatim; the client's backoff applies
//     unchanged. The same kind of line on a link with nothing in flight —
//     a shard reaping the idle link — just closes it: the next op redials.
//
// Shutdown ops are router-local (gated by allow_shutdown) — a client must
// not be able to stop a whole fleet through the front door. migrate_elite
// is rejected: migration is shard-to-shard gossip, not client traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "net/event_loop.hpp"
#include "service/protocol.hpp"
#include "shard/hash_ring.hpp"
#include "util/timer.hpp"

namespace ffp::shard {

struct RouterOptions {
  /// The client side: port, max_clients, idle reap, write deadline (client
  /// and shard lines alike), shed retry-after hint.
  EventLoopOptions loop;
  std::vector<int> shard_ports;  ///< backend ffp_serve ports, 127.0.0.1
  /// Shard read deadline per line while an op is in flight. <= 0 waits
  /// forever — the right default, because a `result` op legitimately
  /// waits out the whole solve; a shard that dies mid-wait closes the
  /// socket and fails the op immediately either way.
  double backend_io_timeout_ms = 0;
  /// How long a failed shard stays out of the rotation before the next
  /// request may probe it again.
  double down_cooldown_ms = 2000;
  int vnodes = 64;  ///< ring points per shard
  bool allow_shutdown = false;  ///< honor client {"op":"shutdown"} (router-local)
  ProtocolLimits limits;
};

/// A submit's ring identity (see "Routing identity" above).
std::uint64_t route_digest(const Request& request);

class Router {
 public:
  /// Binds the listener (throws ffp::Error when the port is taken).
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  int port() const { return loop_.port(); }
  std::size_t shards() const { return options_.shard_ports.size(); }

  /// Serves until request_stop() (or an allowed client shutdown op).
  void run() { loop_.run(); }

  /// Async-signal-safe stop request; idempotent.
  void request_stop() noexcept { loop_.request_stop(); }

 private:
  class Relay;
  class ShardLink;

  bool shard_up(std::size_t s) const;
  void mark_down(std::size_t s);
  void mark_up(std::size_t s) { down_until_ms_[s] = 0; }

  RouterOptions options_;
  HashRing ring_;
  WallTimer clock_;
  std::vector<double> down_until_ms_;  ///< per shard; 0 = up (loop thread)
  ServeStats stats_;
  EventLoopServer loop_;  ///< last: its handlers use everything above
};

}  // namespace ffp::shard
