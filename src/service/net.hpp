// Tiny POSIX TCP helpers for the service tools: the servers listen (on the
// event loop, net/event_loop.hpp), clients connect and read responses with
// the blocking LineReader. Loopback-oriented (the daemon binds 127.0.0.1
// only — putting a partitioner on a public interface is a deployment's
// job, behind whatever auth it has); every failure is an ffp::Error with
// errno text, never a silent -1.
//
// Failure hardening (the deadline layer): reads and writes can carry
// poll()-based timeouts so one slow or dead peer can never wedge a thread
// — LineReader::set_timeout_ms bounds each next() call (the client's
// response timeout), write_line takes a per-call deadline spanning all its
// partial writes. Deadline expiry throws ServiceError(Timeout); a
// reset/torn connection throws ServiceError(ConnLost) — both retryable
// codes, so callers can distinguish "try again" from real protocol errors.
// Every blocking call here is also a fault-injection point
// (util/fault.hpp): short reads, torn writes and dropped connections can
// be injected with FFP_FAULT for chaos testing (the event loop fires the
// same points, plus accept failures).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "service/errors.hpp"
#include "util/check.hpp"

namespace ffp {

/// The protocol's two line ceilings. A request line is control data plus
/// at most an inline graph, and every server reads requests under this
/// bound (accepted connections, parse_request). A response line carries
/// one partition entry per vertex, so whoever reads responses — router
/// shard links, ServiceClient, ffp_client, the elite migrator — allows far
/// more.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 26;
inline constexpr std::size_t kMaxResponseLineBytes = std::size_t{1} << 30;

/// What a server runs on one connection: request lines in, replies out
/// through whatever emit the handler was built with. The event loop calls
/// every method on its own thread.
class LineHandler {
 public:
  virtual ~LineHandler() = default;

  /// Handles one line from the peer. Returns false when the line asked the
  /// whole server to stop (an allowed shutdown op).
  virtual bool handle_line(std::string_view line) = 0;

  /// True while a reply is outstanding. On an accepted connection the
  /// loop meanwhile holds the peer's further lines and stops reading it —
  /// replies go out in request order, TCP backpressure reaches the peer —
  /// and the idle clock stands still; on a dialed link the read deadline
  /// runs.
  virtual bool owes_reply() = 0;

  /// Work a read-closed connection still waits for before it closes.
  virtual std::size_t pending_work() { return owes_reply() ? 1 : 0; }

  /// The loop closed the connection on its own account (peer gone,
  /// deadline, injected fault), with the reason.
  virtual void on_close(std::string_view why) { (void)why; }
};

/// RAII file descriptor.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  FdHandle(FdHandle&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  FdHandle& operator=(FdHandle&& other) noexcept;
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  ~FdHandle() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on 127.0.0.1:port (port 0 → ephemeral). `bound_port`
/// receives the actual port.
FdHandle tcp_listen(int port, int* bound_port);

/// Connects to 127.0.0.1:port.
FdHandle tcp_connect(int port);

/// "17917, 17918" -> ports, as the serving tools take them on the command
/// line. Throws ffp::Error naming `flag` on an entry outside 1..65535.
std::vector<int> parse_ports(std::string_view csv, std::string_view flag);

/// Writes `line` plus '\n', handling partial writes. `timeout_ms` bounds
/// the WHOLE write (all partial sends against one deadline); <= 0 means
/// block forever. Throws ServiceError(Timeout) on deadline expiry,
/// ServiceError(ConnLost) on a reset/closed peer, ffp::Error otherwise.
void write_line(const FdHandle& fd, const std::string& line,
                double timeout_ms = 0);

/// Half-closes the write side: the peer's reader sees EOF while this end
/// can keep reading — how a client says "no more requests" and still
/// collects every response.
void shutdown_write(const FdHandle& fd);

/// Full-closes both directions without releasing the fd — how the server's
/// shutdown path unblocks connection threads parked in a read. Best-effort
/// (never throws): racing an already-closed peer is the expected case.
void shutdown_both(const FdHandle& fd);

/// Buffered newline-delimited reader over a connected socket — the
/// client side of the protocol, so lines default to the response ceiling.
class LineReader {
 public:
  explicit LineReader(const FdHandle& fd) : fd_(&fd) {}

  /// Per-next() read deadline in milliseconds; <= 0 (the default) blocks
  /// forever. When no complete line arrives within the deadline, next()
  /// throws ServiceError(Timeout) — the client's response timeout.
  void set_timeout_ms(double ms) { timeout_ms_ = ms; }

  /// Reads the next line (without the '\n'); false on orderly EOF.
  /// `max_line_bytes` guards against a peer streaming an unbounded line.
  bool next(std::string& line,
            std::size_t max_line_bytes = kMaxResponseLineBytes);

 private:
  const FdHandle* fd_;
  std::string buffer_;
  std::size_t pos_ = 0;
  std::size_t scanned_ = 0;  ///< buffer_ before this holds no newline
  double timeout_ms_ = 0;
};

}  // namespace ffp
