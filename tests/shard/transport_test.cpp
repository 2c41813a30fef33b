// transport_test.cpp — the fleet's byte layer: FrameSplitter reassembly
// across arbitrary chunk boundaries, its resumed '\n' search and frame
// length cap, FdTransport round trips over a real socketpair,
// truncated-EOF detection (peer died mid-line), endpoint parsing, and a
// TCP loopback connect/accept cycle.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "shard/transport.hpp"

namespace dsm::shard {
namespace {

TEST(FrameSplitterTest, YieldsLinesAcrossArbitraryChunks) {
  FrameSplitter s;
  const std::string data = "alpha\nbeta\ngamma\n";
  // Feed one byte at a time — the worst fragmentation a socket can do.
  for (const char c : data) s.feed(&c, 1);
  EXPECT_EQ(s.next().value_or(""), "alpha");
  EXPECT_EQ(s.next().value_or(""), "beta");
  EXPECT_EQ(s.next().value_or(""), "gamma");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_FALSE(s.has_partial());
}

TEST(FrameSplitterTest, HoldsPartialUntilTerminated) {
  FrameSplitter s;
  s.feed("half-a-li", 9);
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.has_partial());
  EXPECT_EQ(s.partial(), "half-a-li");
  s.feed("ne\n", 3);
  EXPECT_EQ(s.next().value_or(""), "half-a-line");
  EXPECT_FALSE(s.has_partial());
}

TEST(FrameSplitterTest, EmptyLinesAreRealLines) {
  FrameSplitter s;
  s.feed("\n\nx\n", 4);
  EXPECT_EQ(s.next().value_or("?"), "");
  EXPECT_EQ(s.next().value_or("?"), "");
  EXPECT_EQ(s.next().value_or(""), "x");
}

TEST(FrameSplitterTest, SearchRestartsAtEachNewLine) {
  FrameSplitter s;
  s.feed("ab", 2);
  EXPECT_FALSE(s.next().has_value());  // two bytes searched, no '\n'
  s.feed("\nc\nd", 4);
  EXPECT_EQ(s.next().value_or("?"), "ab");
  // The next line's '\n' sits before where the first search stopped.
  EXPECT_EQ(s.next().value_or("?"), "c");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_EQ(s.partial(), "d");
}

TEST(FrameSplitterTest, LongLineInSmallReadsIsScannedOnce) {
  // 4 MiB in 64-byte reads with a next() after each, as recv_line does.
  // Resuming the search reads each byte once (milliseconds); rescanning
  // the buffer after every read would read ~137 GB, several seconds even
  // at memchr speed.
  FrameSplitter s;
  const std::string chunk(64, 'x');
  constexpr std::size_t kLine = std::size_t{4} << 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t fed = 0; fed < kLine; fed += chunk.size()) {
    s.feed(chunk.data(), chunk.size());
    ASSERT_FALSE(s.next().has_value());
  }
  s.feed("\n", 1);
  const auto line = s.next();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->size(), kLine);
  EXPECT_FALSE(s.oversized());
  EXPECT_LT(took.count(), 2.0);
}

TEST(FdTransportTest, OversizedFrameFailsTheReceive) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FdTransport a(sv[0]);
  // One byte over the cap, then the terminator. The receiver must give up
  // instead of buffering the frame; closing its end then fails the
  // sender's remaining sends.
  std::thread sender([&a] {
    const std::string chunk(std::size_t{1} << 20, 'x');
    for (std::size_t sent = 0; sent < FrameSplitter::kMaxFrameBytes;
         sent += chunk.size())
      if (!a.send_raw(chunk)) return;
    a.send_raw("x\n");
  });
  {
    FdTransport b(sv[1]);
    std::string line;
    EXPECT_FALSE(b.recv_line(&line));
    EXPECT_TRUE(b.eof_truncated());
  }
  sender.join();
}

TEST(FdTransportTest, RoundTripsLinesOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FdTransport a(sv[0]);
  FdTransport b(sv[1]);
  ASSERT_TRUE(a.send_line("{\"fleet\":\"pull\"}"));
  ASSERT_TRUE(a.send_line("second"));
  std::string line;
  ASSERT_TRUE(b.recv_line(&line));
  EXPECT_EQ(line, "{\"fleet\":\"pull\"}");
  ASSERT_TRUE(b.recv_line(&line));
  EXPECT_EQ(line, "second");
}

TEST(FdTransportTest, CleanEofIsNotTruncation) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  {
    FdTransport a(sv[0]);
    ASSERT_TRUE(a.send_line("whole"));
  }  // a's destructor closes the fd: clean EOF after a complete line
  FdTransport b(sv[1]);
  std::string line;
  ASSERT_TRUE(b.recv_line(&line));
  EXPECT_EQ(line, "whole");
  EXPECT_FALSE(b.recv_line(&line));
  EXPECT_FALSE(b.eof_truncated());
}

TEST(FdTransportTest, DyingMidLineReadsAsTruncatedEof) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  {
    FdTransport a(sv[0]);
    // Half a record, no terminator — the crash-mid-write wire shape.
    ASSERT_TRUE(a.send_raw("{\"v\":2,\"bench\":\"x\",\"spec"));
  }
  FdTransport b(sv[1]);
  std::string line;
  EXPECT_FALSE(b.recv_line(&line));
  EXPECT_TRUE(b.eof_truncated());
}

TEST(FdTransportTest, SendToClosedPeerFailsWithoutSignal) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  FdTransport a(sv[0]);
  // Would raise SIGPIPE (killing the test) without MSG_NOSIGNAL. The
  // first send may land in the kernel buffer; keep pushing until the
  // RST surfaces.
  bool failed = false;
  for (int i = 0; i < 16 && !failed; ++i) failed = !a.send_line("x");
  EXPECT_TRUE(failed);
}

TEST(EndpointTest, ParsesFdAndHostPortSpellings) {
  const auto fd = parse_endpoint("fd:3");
  ASSERT_TRUE(fd.has_value());
  EXPECT_TRUE(fd->is_fd);
  EXPECT_EQ(fd->fd, 3);

  const auto tcp = parse_endpoint("localhost:9000");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_FALSE(tcp->is_fd);
  EXPECT_EQ(tcp->host, "localhost");
  EXPECT_EQ(tcp->port, 9000u);

  EXPECT_FALSE(parse_endpoint("").has_value());
  EXPECT_FALSE(parse_endpoint("fd:").has_value());
  EXPECT_FALSE(parse_endpoint("fd:x").has_value());
  EXPECT_FALSE(parse_endpoint("noport").has_value());
  EXPECT_FALSE(parse_endpoint("host:0").has_value());
  EXPECT_FALSE(parse_endpoint("host:99999").has_value());
}

TEST(TcpTest, LoopbackConnectAcceptRoundTrip) {
  const int listen_fd = tcp_listen(0);  // ephemeral port
  ASSERT_GE(listen_fd, 0);
  const unsigned port = tcp_local_port(listen_fd);
  ASSERT_GT(port, 0u);

  std::thread client([port] {
    const int fd = tcp_connect("127.0.0.1", port);
    ASSERT_GE(fd, 0);
    FdTransport t(fd);
    EXPECT_TRUE(t.send_line("over tcp"));
    std::string echo;
    ASSERT_TRUE(t.recv_line(&echo));
    EXPECT_EQ(echo, "echo: over tcp");
  });

  const int conn = tcp_accept(listen_fd);
  ASSERT_GE(conn, 0);
  {
    FdTransport t(conn);
    std::string line;
    ASSERT_TRUE(t.recv_line(&line));
    EXPECT_EQ(line, "over tcp");
    EXPECT_TRUE(t.send_line("echo: " + line));
  }
  client.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace dsm::shard
