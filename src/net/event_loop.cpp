#include "net/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

#include "util/fault.hpp"

namespace ffp {

namespace {

/// recv() chunk per iteration; level-triggered epoll re-notifies, so the
/// size only trades syscalls against loop fairness.
constexpr std::size_t kReadChunk = 1u << 14;

/// Read iterations per readiness event before yielding back to the loop —
/// one firehose connection must not starve the other thousands.
constexpr int kMaxReadsPerEvent = 64;

void make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  FFP_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(O_NONBLOCK) failed: errno ", errno);
}

FdHandle make_eventfd() {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  FFP_CHECK(fd >= 0, "eventfd creation failed: errno ", errno);
  return FdHandle(fd);
}

void drain_eventfd(int fd) {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd, &count, sizeof(count));
}

/// Signals an eventfd. write(2) is async-signal-safe; EAGAIN means a
/// wakeup is already pending — exactly as good.
void signal_eventfd(int fd) noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

}  // namespace

/// One connection's state machines. The loop thread owns everything
/// except the outbound buffer, which any thread appends to through an
/// emit (guarded by out_mu + the dead flag); the handler is created and
/// destroyed on the loop thread only.
struct EventLoopServer::Conn {
  FdHandle fd;
  int raw_fd = -1;  ///< survives fd.reset() for map bookkeeping
  bool link = false;  ///< dialed by a handler rather than accepted
  std::size_t max_line_bytes = kMaxRequestLineBytes;
  double read_timeout_ms = 0;  ///< links: per-line deadline while owed
  std::unique_ptr<LineHandler> handler;

  // Read side (loop thread only).
  std::string inbuf;
  std::size_t inpos = 0;    ///< start of the first unconsumed byte
  std::size_t scanned = 0;  ///< inbuf before this holds no newline
  bool read_closed = false;
  bool owed = false;  ///< owes_reply() when the loop last looked
  double last_activity_ms = 0;
  std::uint32_t events = EPOLLIN;  ///< current epoll interest

  // Write side (shared with emits).
  std::mutex out_mu;
  std::string outbuf;
  std::size_t outpos = 0;
  bool dead = false;  ///< set under out_mu by drop(); emits become drops
  double write_stall_since_ms = -1;  ///< -1: not stalled
};

/// What emits share with the loop: the dirty list (which connections grew
/// outbound bytes) and the wakeup fd. Held by shared_ptr so an emit on a
/// runner thread can outlive run().
struct EventLoopServer::LoopState {
  std::mutex mu;
  std::vector<std::weak_ptr<Conn>> dirty;
  int wake_fd = -1;

  void emit(const std::weak_ptr<Conn>& wconn, std::string_view line) {
    const auto c = wconn.lock();
    if (c == nullptr) return;
    {
      std::lock_guard lock(c->out_mu);
      if (c->dead) return;
      c->outbuf += line;
      c->outbuf += '\n';
    }
    {
      std::lock_guard lock(mu);
      dirty.push_back(wconn);
    }
    signal_eventfd(wake_fd);
  }

  std::vector<std::weak_ptr<Conn>> take_dirty() {
    std::lock_guard lock(mu);
    return std::exchange(dirty, {});
  }
};

EventLoopServer::EventLoopServer(ServeStats& stats, EventLoopOptions options,
                                 HandlerFactory factory)
    : stats_(stats), options_(options), factory_(std::move(factory)) {
  FFP_CHECK(options_.max_clients >= 1,
            "EventLoopServer needs max_clients >= 1");
  listener_ = tcp_listen(options_.port, &port_);
  make_nonblocking(listener_.get());
  epoll_ = FdHandle(::epoll_create1(EPOLL_CLOEXEC));
  FFP_CHECK(epoll_.valid(), "epoll_create1 failed: errno ", errno);
  wake_ = make_eventfd();
  stop_ = make_eventfd();
  state_ = std::make_shared<LoopState>();
  state_->wake_fd = wake_.get();
  for (const int fd : {listener_.get(), wake_.get(), stop_.get()}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    FFP_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl(ADD) failed: errno ", errno);
  }
}

EventLoopServer::~EventLoopServer() = default;

void EventLoopServer::request_stop() noexcept { signal_eventfd(stop_.get()); }

std::shared_ptr<EventLoopServer::Conn> EventLoopServer::add(
    FdHandle fd, bool link, std::unique_ptr<LineHandler> handler) {
  auto c = std::make_shared<Conn>();
  c->raw_fd = fd.get();
  c->fd = std::move(fd);
  c->link = link;
  c->max_line_bytes = link ? kMaxResponseLineBytes : kMaxRequestLineBytes;
  c->last_activity_ms = clock_.elapsed_millis();
  c->handler = std::move(handler);
  epoll_event ev{};
  ev.events = c->events;
  ev.data.fd = c->raw_fd;
  FFP_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, c->raw_fd, &ev) == 0,
            "epoll_ctl(ADD) failed: errno ", errno);
  conns_.emplace(c->raw_fd, c);
  return c;
}

EventLoopServer::Link EventLoopServer::dial(
    int port, double read_timeout_ms, std::unique_ptr<LineHandler> handler) {
  FdHandle fd = tcp_connect(port);
  make_nonblocking(fd.get());
  Link link;
  link.loop_ = this;
  const auto c = add(std::move(fd), /*link=*/true, std::move(handler));
  c->read_timeout_ms = read_timeout_ms;
  link.conn_ = c;
  return link;
}

void EventLoopServer::Link::send(std::string_view line) const {
  if (const auto c = conn_.lock()) {
    c->last_activity_ms = loop_->clock_.elapsed_millis();
    loop_->state_->emit(conn_, line);
  }
}

void EventLoopServer::Link::close() const {
  if (const auto c = conn_.lock()) loop_->drop(c, /*notify=*/false);
}

/// The live connections, held: dropping one must not cut the iteration.
std::vector<std::shared_ptr<EventLoopServer::Conn>> EventLoopServer::snapshot()
    const {
  std::vector<std::shared_ptr<Conn>> out;
  out.reserve(conns_.size());
  for (const auto& entry : conns_) out.push_back(entry.second);
  return out;
}

/// Tears one connection down on the loop thread: emits go dead, the fd
/// leaves the epoll set and closes, and the handler moves to the
/// graveyard (it may be the caller further up this stack). With `notify`
/// the handler learns why first.
void EventLoopServer::drop(const std::shared_ptr<Conn>& c, bool notify,
                           std::string_view why) {
  {
    std::lock_guard lock(c->out_mu);
    if (c->dead) return;
    c->dead = true;
  }
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, c->raw_fd, nullptr);
  c->fd.reset();
  conns_.erase(c->raw_fd);
  if (!c->link) {
    --clients_;
    stats_.connections_open.fetch_sub(1, std::memory_order_relaxed);
  }
  LineHandler* handler = c->handler.get();
  graveyard_.push_back(std::move(c->handler));
  if (notify) handler->on_close(why);
}

/// Flushes what it can without blocking. Returns false when the
/// connection must be dropped (peer gone, or an injected tear).
bool EventLoopServer::flush(Conn& c) {
  std::lock_guard lock(c.out_mu);
  if (c.dead) return true;
  while (c.outpos < c.outbuf.size()) {
    if (fault::fire(fault::Point::ConnDrop)) return false;
    std::size_t chunk = c.outbuf.size() - c.outpos;
    const bool torn = fault::fire(fault::Point::TornWrite);
    if (torn) chunk = std::max<std::size_t>(1, chunk / 2);
    const ssize_t n = ::send(c.fd.get(), c.outbuf.data() + c.outpos, chunk,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (c.write_stall_since_ms < 0) {
          c.write_stall_since_ms = clock_.elapsed_millis();
        }
        return true;  // EPOLLOUT resumes us
      }
      return false;  // peer vanished
    }
    c.outpos += static_cast<std::size_t>(n);
    if (torn) return false;  // the tear drops the connection
  }
  c.outbuf.clear();
  c.outpos = 0;
  c.write_stall_since_ms = -1;
  return true;
}

/// Re-arms epoll interest: read unless the handler is owed a reply, write
/// while outbound bytes wait.
void EventLoopServer::update_interest(Conn& c) {
  bool pending = false;
  {
    std::lock_guard lock(c.out_mu);
    pending = c.outpos < c.outbuf.size();
  }
  const std::uint32_t events = (holding(c) ? 0u : EPOLLIN) |
                               (pending ? EPOLLOUT : 0u);
  if (events == c.events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = c.raw_fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c.raw_fd, &ev) == 0) {
    c.events = events;
  }
}

/// An accepted connection owed a reply takes no further lines. (A link's
/// handler is owed a reply by the peer: that is when it must read.)
bool EventLoopServer::holding(Conn& c) {
  return !c.link && c.handler->owes_reply();
}

/// The idle clock of an accepted connection stands still while its peer
/// is owed a reply, and restarts when the reply has gone out.
void EventLoopServer::note_owed(Conn& c) {
  if (c.link) return;
  const bool owed = c.handler->owes_reply();
  if (owed || c.owed) c.last_activity_ms = clock_.elapsed_millis();
  c.owed = owed;
}

/// Clean-EOF reap: a read-closed client with every line handled, no
/// handler work left and an empty outbound buffer has nothing left to say.
/// (A link closes as soon as its peer does, in on_readable.)
void EventLoopServer::reap_if_finished(const std::shared_ptr<Conn>& c) {
  if (c->dead || c->link || !c->read_closed || c->inpos < c->inbuf.size()) {
    return;
  }
  if (c->handler->pending_work() > 0) return;
  {
    std::lock_guard lock(c->out_mu);
    if (c->outpos < c->outbuf.size()) return;
  }
  drop(c, /*notify=*/false);
}

/// Feeds the handler every complete line in the inbuf (plus, at a
/// client's EOF, a final unterminated one) until it is owed a reply.
/// Returns false when the connection must be dropped.
bool EventLoopServer::process_lines(const std::shared_ptr<Conn>& c) {
  while (!c->dead && !holding(*c)) {
    std::size_t end = c->inbuf.find('\n', std::max(c->inpos, c->scanned));
    if (end == std::string::npos) {
      c->scanned = c->inbuf.size();
      if (c->inbuf.size() - c->inpos > c->max_line_bytes) {
        if (!c->link) {
          std::lock_guard lock(c->out_mu);
          c->outbuf += format_error("", "request line exceeds the size limit",
                                    ErrCode::BadRequest);
          c->outbuf += '\n';
        }
        return false;
      }
      if (!c->read_closed || c->link || c->inpos == c->inbuf.size()) break;
      end = c->inbuf.size();  // a client's final unterminated line
    }
    // The view stays valid through the call: only this function and
    // on_readable touch the inbuf, never a handler.
    const std::string_view line(c->inbuf.data() + c->inpos, end - c->inpos);
    c->inpos = std::min(end + 1, c->inbuf.size());
    fault::maybe_delay();
    if (!c->handler->handle_line(line)) {
      // An allowed shutdown op: the bye is queued; the caller flushes it
      // best-effort, then the whole server stops (one stop path).
      stopping_ = true;
      return false;
    }
  }
  if (c->inpos == c->inbuf.size()) {
    c->inbuf.clear();
    c->inpos = 0;
    c->scanned = 0;
  } else if (c->inpos > kReadChunk) {
    c->inbuf.erase(0, c->inpos);
    c->scanned -= std::min(c->scanned, c->inpos);
    c->inpos = 0;
  }
  return true;
}

/// After the loop touched a connection: hand the handler what it will
/// take (lines held while it was owed a reply included), flush, restart
/// the clocks, re-arm interest, and close a client that is done.
void EventLoopServer::settle(const std::shared_ptr<Conn>& c) {
  if (c->dead) return;
  if (!process_lines(c)) {
    (void)flush(*c);  // best-effort goodbye (shutdown bye, error line)
    drop(c, /*notify=*/true, "line exceeds the size limit");
    return;
  }
  if (c->dead) return;  // its handler closed it
  if (!flush(*c)) {
    drop(c, /*notify=*/true, "connection lost");
    return;
  }
  note_owed(*c);
  update_interest(*c);
  reap_if_finished(c);
}

void EventLoopServer::on_readable(const std::shared_ptr<Conn>& c) {
  for (int i = 0; i < kMaxReadsPerEvent; ++i) {
    if (fault::fire(fault::Point::ConnDrop)) {
      drop(c, /*notify=*/true, "injected fault: connection dropped");
      return;
    }
    char buf[kReadChunk];
    const std::size_t want =
        fault::fire(fault::Point::ShortRead) ? 1 : sizeof(buf);
    const ssize_t n = ::recv(c->fd.get(), buf, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop(c, /*notify=*/true, "connection reset");
      return;
    }
    if (n == 0) {
      c->read_closed = true;
      break;
    }
    c->inbuf.append(buf, static_cast<std::size_t>(n));
    c->last_activity_ms = clock_.elapsed_millis();
  }
  settle(c);
  // A link's peer has nothing more to say once it closes: whatever it
  // still owed is lost.
  if (c->link && c->read_closed) {
    drop(c, /*notify=*/true, "closed by the peer");
  }
}

void EventLoopServer::accept_new() {
  for (;;) {
    const int raw = ::accept4(listener_.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      std::fprintf(stderr, "ffp: accept error: errno %d\n", errno);
      return;
    }
    FdHandle fd(raw);
    if (fault::fire(fault::Point::AcceptFail)) continue;  // injected drop
    if (clients_ >= options_.max_clients) {
      // Overload shedding: immediate structured rejection, never a queue
      // slot. Best-effort single send.
      stats_.sheds.fetch_add(1, std::memory_order_relaxed);
      const std::string line =
          format_error("",
                       "server at capacity (" +
                           std::to_string(options_.max_clients) +
                           " clients); retry after backoff",
                       ErrCode::Overloaded, kOverloadRetryAfterMs) +
          "\n";
      (void)::send(raw, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      continue;
    }
    // The handler is built around the registered connection's emit
    // (nothing reads the connection before this returns). The weak_ptr
    // keeps a torn connection from pinning its buffers forever.
    const auto c = add(std::move(fd), /*link=*/false, nullptr);
    c->handler = factory_([state = state_, wconn = std::weak_ptr<Conn>(c)](
                              std::string_view line) {
      state->emit(wconn, line);
    });
    ++clients_;
    stats_.connections_total.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_open.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Deadline sweep: write stalls, link read deadlines, idle clients, and
/// read-closed clients whose work finished without an emit.
void EventLoopServer::tick() {
  const double now = clock_.elapsed_millis();
  for (const auto& c : snapshot()) {
    if (c->dead) continue;
    bool stalled = false;
    if (options_.write_timeout_ms > 0) {
      std::lock_guard lock(c->out_mu);
      stalled = c->write_stall_since_ms >= 0 &&
                now - c->write_stall_since_ms > options_.write_timeout_ms;
    }
    if (stalled) {
      drop(c, /*notify=*/true, "write deadline passed");
      continue;
    }
    note_owed(*c);
    const double quiet = now - c->last_activity_ms;
    if (c->link) {
      if (c->read_timeout_ms > 0 && quiet > c->read_timeout_ms &&
          c->handler->owes_reply()) {
        drop(c, /*notify=*/true,
             "no reply within " + std::to_string(c->read_timeout_ms) + " ms");
      }
      continue;
    }
    if (options_.idle_timeout_ms > 0 && !c->owed && !c->read_closed &&
        quiet > options_.idle_timeout_ms) {
      // The idle reaper's structured goodbye, best-effort.
      {
        std::lock_guard lock(c->out_mu);
        c->outbuf += format_error(
            "", "idle timeout: no request within the deadline",
            ErrCode::Timeout);
        c->outbuf += '\n';
      }
      (void)flush(*c);
      drop(c, /*notify=*/true, "idle");
      continue;
    }
    reap_if_finished(c);
  }
}

void EventLoopServer::run() {
  std::vector<epoll_event> events(256);
  while (!stopping_) {
    const int rc = ::epoll_wait(epoll_.get(), events.data(),
                                static_cast<int>(events.size()),
                                conns_.empty() ? -1 : 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "ffp: epoll error: errno %d\n", errno);
      break;
    }
    stats_.loop_wakeups.fetch_add(1, std::memory_order_relaxed);

    for (int i = 0; i < rc && !stopping_; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (fd == stop_.get()) {
        stopping_ = true;
        break;
      }
      if (fd == wake_.get()) {
        drain_eventfd(fd);  // the dirty pass below runs every iteration
        continue;
      }
      if (fd == listener_.get()) {
        accept_new();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn> c = it->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0 && (ev & EPOLLIN) == 0) {
        drop(c, /*notify=*/true, "connection lost");
      } else if ((ev & EPOLLIN) != 0) {
        on_readable(c);
      } else {
        settle(c);  // EPOLLOUT: the slow-reader tail
      }
    }
    // Connections that gained outbound bytes — from runner threads, or
    // from a handler on this thread (a relay answering its client).
    for (const auto& wconn : state_->take_dirty()) {
      if (const auto c = wconn.lock(); c != nullptr && !stopping_) settle(c);
    }
    if (!stopping_) tick();
    // A destroyed handler may close more connections (a relay its links).
    while (!graveyard_.empty()) std::exchange(graveyard_, {}).clear();
  }

  // Drain: no new connections, flush what we can, tear every handler
  // down without waiting on anything.
  shutdown_both(listener_);
  for (const auto& c : snapshot()) {
    (void)flush(*c);
    drop(c, /*notify=*/false);
  }
  while (!graveyard_.empty()) std::exchange(graveyard_, {}).clear();
}

EventLoopServer::HandlerFactory serve_sessions(ServiceHost& host,
                                               SessionPolicy policy) {
  policy.async_results = true;
  policy.teardown_wait_ms = -1;
  return [&host, policy](EventLoopServer::Emit emit)
             -> std::unique_ptr<LineHandler> {
    return std::make_unique<ServiceSession>(host, std::move(emit), policy);
  };
}

}  // namespace ffp
