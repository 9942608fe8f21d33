// EventLoopServer — the one TCP transport: one epoll thread multiplexing
// every connection of a process, each driven by its own LineHandler
// (service/net.hpp). ffp_serve runs a ServiceSession per connection
// (serve_sessions below); ffp_router runs a relay per client and dials its
// shard links as loop connections too (shard/router.hpp). A connection
// costs file descriptors, not threads: the process runs the loop thread
// plus whatever its handlers feed (the engine's runners).
//
// Policy, in one place for both servers:
//   * Non-blocking accept with overload shedding: an accepted connection
//     beyond `max_clients` is told code "overloaded" (+ retry-after hint)
//     and closed immediately, never queued. Links do not count.
//   * Framing: newline-delimited lines under a length ceiling (the request
//     ceiling on accepted connections, the response ceiling on links); a
//     client's final unterminated line still counts, a link's is torn and
//     dropped. Each complete line goes to the connection's handler.
//   * Writes: reply lines append to an outbound buffer under a lock —
//     engine runner threads deliver results there — and an eventfd wakes
//     the loop to flush. EPOLLOUT handles the slow-reader tail; a peer
//     that stops reading for `write_timeout_ms` is dropped.
//   * Idle reaping: an accepted connection that sends nothing for
//     `idle_timeout_ms` while it is owed no reply gets a structured
//     "timeout" error and is closed; the clock restarts when an owed reply
//     is sent. Links are exempt and carry a per-line read deadline instead,
//     running while their handler is owed a reply.
//   * One reply at a time: while an accepted connection is owed a reply
//     the loop holds its further lines and stops reading from it, so
//     replies go out in request order and TCP backpressure reaches the
//     peer.
//   * A client's clean EOF keeps the connection until its handler's work
//     is done and every reply has flushed.
//   * FFP_FAULT points fire here like in net.cpp: short_read, torn_write,
//     conn_drop, accept_fail, delay_response.
//   * request_stop() is async-signal-safe (eventfd write). The drain stops
//     accepting, flushes what it can and destroys every handler (sessions
//     cancel their jobs without waiting); the owner then shuts down what
//     the handlers fed — for ffp_serve, the scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "service/net.hpp"
#include "service/service.hpp"
#include "util/timer.hpp"

namespace ffp {

struct EventLoopOptions {
  int port = 0;                ///< 127.0.0.1 port; 0 picks ephemeral
  unsigned max_clients = 1024; ///< accepted connections; beyond this, shed
  /// An accepted connection idle this long, owed no reply, is reaped
  /// (structured `timeout` error, then close). <= 0 disables reaping.
  double idle_timeout_ms = 30000;
  /// How long a connection may sit with unflushed bytes before it is
  /// dropped as a dead reader. <= 0 waits forever.
  double write_timeout_ms = 10000;
};

class EventLoopServer {
 private:
  struct Conn;
  struct LoopState;

 public:
  /// Queues one line for the connection's peer. Callable from any thread;
  /// once the connection is gone the line is dropped.
  using Emit = std::function<void(std::string_view line)>;
  /// Builds the handler of one accepted connection around its emit.
  using HandlerFactory = std::function<std::unique_ptr<LineHandler>(Emit)>;

  /// A connection dialed by a handler, as its owner holds it. Loop thread
  /// only; copies refer to the same connection.
  class Link {
   public:
    /// Queues one line for the peer and restarts the read deadline.
    void send(std::string_view line) const;
    /// Closes the connection now, without calling its handler's on_close.
    void close() const;

   private:
    friend class EventLoopServer;
    EventLoopServer* loop_ = nullptr;
    std::weak_ptr<Conn> conn_;
  };

  /// Binds the listener (throws ffp::Error when the port is taken). The
  /// stats must outlive the server.
  EventLoopServer(ServeStats& stats, EventLoopOptions options,
                  HandlerFactory factory);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  int port() const { return port_; }

  /// Serves until a stop: request_stop(), or a handler's allowed shutdown
  /// op. Drains before returning. Call once, from the thread that owns the
  /// loop.
  void run();

  /// Async-signal-safe stop request (eventfd write); idempotent.
  void request_stop() noexcept;

  /// Dials 127.0.0.1:`port` and serves it as a link driven by `handler`:
  /// exempt from max_clients and the idle reaper, with a read deadline of
  /// `read_timeout_ms` per line while the handler is owed a reply (<= 0:
  /// none). Loop thread only, from inside a handler. Throws ffp::Error
  /// when the peer refuses.
  Link dial(int port, double read_timeout_ms,
            std::unique_ptr<LineHandler> handler);

 private:
  std::shared_ptr<Conn> add(FdHandle fd, bool link,
                            std::unique_ptr<LineHandler> handler);
  std::vector<std::shared_ptr<Conn>> snapshot() const;
  void accept_new();
  void on_readable(const std::shared_ptr<Conn>& c);
  bool process_lines(const std::shared_ptr<Conn>& c);
  bool flush(Conn& c);
  void settle(const std::shared_ptr<Conn>& c);
  static bool holding(Conn& c);
  void note_owed(Conn& c);
  void update_interest(Conn& c);
  void reap_if_finished(const std::shared_ptr<Conn>& c);
  void tick();
  void drop(const std::shared_ptr<Conn>& c, bool notify,
            std::string_view why = {});

  ServeStats& stats_;
  EventLoopOptions options_;
  HandlerFactory factory_;
  FdHandle listener_;
  int port_ = 0;
  FdHandle epoll_;
  FdHandle wake_;  ///< completion wakeup (runner threads write)
  FdHandle stop_;  ///< stop request (signal handlers write)
  std::shared_ptr<LoopState> state_;

  // Loop thread only.
  WallTimer clock_;
  std::map<int, std::shared_ptr<Conn>> conns_;  ///< by fd: clients + links
  unsigned clients_ = 0;
  bool stopping_ = false;
  /// Handlers of dropped connections, destroyed at the end of the loop
  /// iteration: a drop can happen while the handler is on the stack.
  std::vector<std::unique_ptr<LineHandler>> graveyard_;
};

/// ffp_serve's handlers: one ServiceSession over `host` per connection,
/// with async result delivery and a no-wait teardown, since the loop
/// thread never blocks.
EventLoopServer::HandlerFactory serve_sessions(ServiceHost& host,
                                               SessionPolicy policy);

}  // namespace ffp
