#include "service/net.hpp"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/fault.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace ffp {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  const int saved = errno;
  // A vanished peer is a retryable transport fact, not a generic error:
  // give it the taxonomy code so clients can reconnect-and-resubmit.
  if (saved == ECONNRESET || saved == EPIPE || saved == ECONNABORTED ||
      saved == ENOTCONN) {
    throw ServiceError(ErrCode::ConnLost,
                       what + ": " + std::strerror(saved));
  }
  throw Error(what + ": " + std::strerror(saved));
}

/// Waits for `events` on fd against a deadline started at `timer`.
/// timeout_ms <= 0 blocks forever. Throws ServiceError(Timeout) on expiry;
/// loops on EINTR (re-deriving the remaining budget from the timer, so
/// signals cannot extend the deadline).
void poll_or_timeout(int fd, short events, double timeout_ms,
                     const WallTimer& timer, const char* what) {
  for (;;) {
    int wait_ms = -1;
    if (timeout_ms > 0) {
      const double remaining = timeout_ms - timer.elapsed_millis();
      if (remaining <= 0) {
        throw ServiceError(ErrCode::Timeout,
                           std::string(what) + " timed out after " +
                               std::to_string(timeout_ms) + " ms");
      }
      // Round up so a sub-millisecond remainder still waits, not spins.
      wait_ms = static_cast<int>(remaining) + 1;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc > 0) return;  // ready (or error/hup — the I/O call reports it)
    if (rc == 0) {
      throw ServiceError(ErrCode::Timeout,
                         std::string(what) + " timed out after " +
                             std::to_string(timeout_ms) + " ms");
    }
    if (errno == EINTR) continue;
    fail_errno(std::string(what) + " poll");
  }
}

[[noreturn]] void inject_conn_drop(const FdHandle& fd, const char* where) {
  shutdown_both(fd);
  throw ServiceError(ErrCode::ConnLost,
                     std::string("injected fault: connection dropped in ") +
                         where);
}

}  // namespace

FdHandle& FdHandle::operator=(FdHandle&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void FdHandle::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

FdHandle tcp_listen(int port, int* bound_port) {
  FFP_CHECK(port >= 0 && port <= 65535, "port out of range: ", port);
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  // A deep backlog: the event-loop server absorbs thousand-connection
  // bursts, and a full backlog turns into SYN-retransmit stalls (seconds
  // per connect) on the client side, not a clean refusal.
  if (::listen(fd.get(), SOMAXCONN) != 0) fail_errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) !=
        0) {
      fail_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

FdHandle tcp_connect(int port) {
  FFP_CHECK(port > 0 && port <= 65535, "port out of range: ", port);
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail_errno("connect 127.0.0.1:" + std::to_string(port));
  }
  return fd;
}

std::vector<int> parse_ports(std::string_view csv, std::string_view flag) {
  std::vector<int> ports;
  for (std::size_t start = 0; start <= csv.size();) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string_view::npos) comma = csv.size();
    const std::string_view piece = trim(csv.substr(start, comma - start));
    if (!piece.empty()) {
      const auto port = parse_int(piece);
      if (!port.has_value() || *port < 1 || *port > 65535) {
        throw Error(std::string(flag) + " entries must be ports (1..65535), "
                    "got '" + std::string(piece) + "'");
      }
      ports.push_back(static_cast<int>(*port));
    }
    start = comma + 1;
  }
  return ports;
}

void write_line(const FdHandle& fd, const std::string& line,
                double timeout_ms) {
  fault::maybe_delay();
  if (fault::fire(fault::Point::ConnDrop)) inject_conn_drop(fd, "send");
  std::string framed = line;
  framed.push_back('\n');
  std::size_t limit = framed.size();
  const bool torn = fault::fire(fault::Point::TornWrite);
  if (torn) limit = framed.size() / 2;  // always cuts before the '\n'
  const WallTimer deadline;  // one budget across ALL partial sends
  std::size_t sent = 0;
  while (sent < limit) {
    // With a deadline the send itself must not block either: a blocking
    // send() of a large buffer sleeps INSIDE the kernel until everything
    // is queued, ignoring any poll we did first. MSG_DONTWAIT makes it
    // return what fit; EAGAIN loops back into the bounded poll.
    int flags = MSG_NOSIGNAL;  // EPIPE as an error, not a process signal
    if (timeout_ms > 0) {
      poll_or_timeout(fd.get(), POLLOUT, timeout_ms, deadline, "send");
      flags |= MSG_DONTWAIT;
    }
    const ssize_t n =
        ::send(fd.get(), framed.data() + sent, limit - sent, flags);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  if (torn) {
    // The remainder is gone and the peer must find out: drop the
    // connection so its reader sees a truncated line + EOF, never a
    // silently missing suffix.
    inject_conn_drop(fd, "send (torn write)");
  }
}

void shutdown_write(const FdHandle& fd) {
  if (::shutdown(fd.get(), SHUT_WR) != 0) fail_errno("shutdown(SHUT_WR)");
}

void shutdown_both(const FdHandle& fd) {
  // Best-effort: used to kick a peer loose during server shutdown, where
  // the fd may already be dead — that is success, not an error.
  if (fd.valid()) ::shutdown(fd.get(), SHUT_RDWR);
}

bool LineReader::next(std::string& line, std::size_t max_line_bytes) {
  const WallTimer deadline;  // per-call: one line within timeout_ms_
  for (;;) {
    // Resume the newline search where the last one stopped: rescanning a
    // long line from its start after every chunk is quadratic.
    const std::size_t eol = buffer_.find('\n', std::max(pos_, scanned_));
    if (eol != std::string::npos) {
      line.assign(buffer_, pos_, eol - pos_);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      pos_ = eol + 1;
      scanned_ = pos_;
      // Compact once the consumed prefix dominates the buffer.
      if (pos_ > (1u << 16) && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = 0;
        scanned_ = 0;
      }
      return true;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() - pos_ > max_line_bytes) {
      throw Error("line exceeds " + std::to_string(max_line_bytes) +
                  " bytes without a newline");
    }
    if (fault::fire(fault::Point::ConnDrop)) inject_conn_drop(*fd_, "recv");
    if (timeout_ms_ > 0) {
      poll_or_timeout(fd_->get(), POLLIN, timeout_ms_, deadline, "recv");
    }
    char chunk[4096];
    // Injected short reads deliver one byte at a time — the framing above
    // must reassemble lines from arbitrary fragmentation.
    const std::size_t want =
        fault::fire(fault::Point::ShortRead) ? 1 : sizeof(chunk);
    const ssize_t n = ::recv(fd_->get(), chunk, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv");
    }
    if (n == 0) {
      // Orderly EOF: a final unterminated line still counts.
      if (pos_ < buffer_.size()) {
        line.assign(buffer_, pos_, buffer_.size() - pos_);
        buffer_.clear();
        pos_ = 0;
        scanned_ = 0;
        return true;
      }
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace ffp
