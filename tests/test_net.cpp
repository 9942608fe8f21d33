// Transport-layer tests: framing, EOF and error semantics, and the
// failure-hardening deadline layer (read/write timeouts, EINTR resilience,
// shutdown-driven unblocking) over real loopback sockets.
#include "service/net.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <string>
#include <thread>

#include "service/errors.hpp"

namespace ffp {
namespace {

/// A connected loopback pair: `client` dialed `server` via a throwaway
/// ephemeral listener.
struct SocketPair {
  SocketPair() {
    int port = 0;
    FdHandle listener = tcp_listen(0, &port);
    client = tcp_connect(port);
    server = FdHandle(::accept(listener.get(), nullptr, nullptr));
  }
  FdHandle client;
  FdHandle server;
};

TEST(Net, LineRoundTripBothDirections) {
  SocketPair pair;
  write_line(pair.client, R"({"op":"status","id":"a"})");
  write_line(pair.client, "second");
  LineReader server_reader(pair.server);
  std::string line;
  ASSERT_TRUE(server_reader.next(line));
  EXPECT_EQ(line, R"({"op":"status","id":"a"})");
  ASSERT_TRUE(server_reader.next(line));
  EXPECT_EQ(line, "second");

  write_line(pair.server, "reply");
  LineReader client_reader(pair.client);
  ASSERT_TRUE(client_reader.next(line));
  EXPECT_EQ(line, "reply");
}

TEST(Net, StripsCarriageReturns) {
  SocketPair pair;
  const std::string framed = "crlf line\r\n";
  ASSERT_EQ(::send(pair.client.get(), framed.data(), framed.size(), 0),
            static_cast<ssize_t>(framed.size()));
  LineReader reader(pair.server);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "crlf line");
}

TEST(Net, PeerClosedMidLineDeliversPartialThenEof) {
  SocketPair pair;
  const std::string partial = "unterminated";
  ASSERT_EQ(::send(pair.client.get(), partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  pair.client.reset();  // close without ever sending '\n'
  LineReader reader(pair.server);
  std::string line;
  ASSERT_TRUE(reader.next(line));  // the final unterminated line counts
  EXPECT_EQ(line, "unterminated");
  EXPECT_FALSE(reader.next(line));  // then orderly EOF
}

TEST(Net, RejectsOversizedLines) {
  SocketPair pair;
  const std::string blob(64, 'x');  // no newline anywhere
  ASSERT_EQ(::send(pair.client.get(), blob.data(), blob.size(), 0),
            static_cast<ssize_t>(blob.size()));
  LineReader reader(pair.server);
  std::string line;
  EXPECT_THROW(reader.next(line, 16), Error);
}

TEST(Net, ReadTimeoutThrowsRetryableTimeout) {
  SocketPair pair;
  LineReader reader(pair.server);
  reader.set_timeout_ms(50);
  std::string line;
  try {
    reader.next(line);
    FAIL() << "expected a timeout";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrCode::Timeout);
    EXPECT_TRUE(e.retryable());
  }
}

TEST(Net, ReadDeadlineCoversTheWholeLineNotEachByte) {
  SocketPair pair;
  // A drip-feeding peer: bytes keep arriving but the line never completes
  // — the per-next() deadline must still fire.
  const std::string drip = "ab";
  ASSERT_EQ(::send(pair.client.get(), drip.data(), drip.size(), 0),
            static_cast<ssize_t>(drip.size()));
  LineReader reader(pair.server);
  reader.set_timeout_ms(80);
  std::string line;
  EXPECT_THROW(reader.next(line), ServiceError);
}

TEST(Net, WriteTimeoutWhenPeerStopsReading) {
  SocketPair pair;
  // Shrink both socket buffers so a multi-megabyte line cannot fit
  // in-flight, then never read at the peer: the bounded write must give
  // up instead of wedging forever.
  const int small = 4096;
  ::setsockopt(pair.client.get(), SOL_SOCKET, SO_SNDBUF, &small,
               sizeof(small));
  ::setsockopt(pair.server.get(), SOL_SOCKET, SO_RCVBUF, &small,
               sizeof(small));
  const std::string huge(32u << 20, 'x');
  try {
    write_line(pair.client, huge, 200);
    FAIL() << "expected a send timeout";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrCode::Timeout);
    EXPECT_TRUE(e.retryable());
  }
}

TEST(Net, WriteToClosedPeerThrowsConnLost) {
  SocketPair pair;
  pair.server.reset();  // peer is gone
  const std::string chunk(1u << 16, 'x');
  // The first write(s) may land in the local buffer; the RST turns a
  // later one into EPIPE/ECONNRESET — mapped to the retryable ConnLost.
  bool threw = false;
  for (int i = 0; i < 256 && !threw; ++i) {
    try {
      write_line(pair.client, chunk);
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ErrCode::ConnLost);
      EXPECT_TRUE(e.retryable());
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

extern "C" void net_test_noop_handler(int) {}

TEST(Net, EintrDoesNotAbortOrExtendAread) {
  // A no-op handler WITHOUT SA_RESTART makes blocking syscalls return
  // EINTR — the read loop must resume and still deliver the line.
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = net_test_noop_handler;
  sa.sa_flags = 0;
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  SocketPair pair;
  std::atomic<bool> got{false};
  std::string received;
  std::thread reader_thread([&] {
    LineReader reader(pair.server);
    reader.set_timeout_ms(5000);  // exercise the poll path too
    std::string line;
    if (reader.next(line)) {
      received = line;
      got.store(true);
    }
  });
  const pthread_t handle = reader_thread.native_handle();
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pthread_kill(handle, SIGUSR1);
  }
  write_line(pair.client, "survived the signals");
  reader_thread.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(received, "survived the signals");
  sigaction(SIGUSR1, &old, nullptr);
}

TEST(Net, ShutdownBothUnblocksABlockedReader) {
  SocketPair pair;
  std::atomic<bool> saw_eof{false};
  std::thread reader_thread([&] {
    LineReader reader(pair.server);
    std::string line;
    // No timeout: only the shutdown can end this read.
    saw_eof.store(!reader.next(line));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  shutdown_both(pair.server);
  reader_thread.join();
  EXPECT_TRUE(saw_eof.load());
}

}  // namespace
}  // namespace ffp
