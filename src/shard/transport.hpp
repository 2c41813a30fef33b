// transport.hpp — the byte transport under the pull fleet: line-framed
// JSON over a stream socket (a socketpair for same-host `--shards=N`
// workers, TCP for multi-host fleets).
//
// Everything the fleet exchanges — work leases, heartbeats, and the
// NDJSON record stream itself — is one JSON object per '\n'-terminated
// line, discriminated by its first key ("fleet", "hb", or "v"). Records
// travel verbatim: the worker's formatted bytes are the bytes the
// coordinator emits, so the single-formatting-point property that makes
// merged output byte-identical to `--shards=1` survives the socket hop.
//
// FrameSplitter is the coordinator-side half: it is fed raw read() chunks
// (the coordinator's poll loop never blocks on one worker) and yields
// complete lines. A connection that dies mid-line leaves a partial frame
// behind, which the coordinator reports as a *truncated* record — the
// same recoverable diagnostic a crashed worker's file store gets — and
// discards rather than merging. A peer that sends a frame longer than
// FrameSplitter::kMaxFrameBytes is dropped the same way, so a TCP peer
// cannot make the coordinator buffer without bound.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>

namespace dsm::shard {

/// Incremental splitter of a byte stream into '\n'-terminated lines.
class FrameSplitter {
 public:
  /// Longest frame (line, without its '\n') a peer may send: 64 MiB,
  /// 3.8x the largest record line the harnesses emit, 17.5 MB (fig2 or
  /// fig4 FMM/32 at --scale=bench with --obs-intervals, nearly all of it
  /// the interval timeline, whose length does not grow with --scale).
  /// Without --obs-intervals record lines stay under 64 KB.
  static constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

  /// Appends raw bytes from the connection.
  void feed(const char* data, std::size_t n);

  /// Pops the next complete line (without its '\n'), or nullopt when no
  /// full line is buffered yet or the next frame is oversized(). The
  /// search for '\n' resumes where the previous call stopped, so a long
  /// line arriving in small reads is scanned once.
  std::optional<std::string> next();

  /// True once the frame at the head of the buffer is known to exceed
  /// kMaxFrameBytes (after next() returned nullopt). It stays true: the
  /// stream cannot be resynchronised, so the peer must be dropped.
  bool oversized() const { return scanned_ > kMaxFrameBytes; }

  /// True when bytes of an unterminated line remain — after EOF this
  /// means the peer died mid-record (a truncated frame).
  bool has_partial() const { return !buf_.empty(); }

  /// The unterminated tail (diagnostic use; valid when has_partial()).
  const std::string& partial() const { return buf_; }

 private:
  std::string buf_;
  std::size_t scanned_ = 0;  ///< leading bytes of buf_ known to hold no '\n'
};

/// Writes all of `bytes` to the connected stream fd `fd`, retrying short
/// writes and EINTR. Returns false when the peer is gone (EPIPE/
/// ECONNRESET — never raises SIGPIPE). The coordinator's sends and
/// FdTransport's both go through here.
bool send_all(int fd, const std::string& bytes);

/// Blocking line transport over a connected stream fd. Worker-side: the
/// sweep threads and the heartbeat thread both write, so sends are
/// serialized by an internal mutex; receives are single-reader (the
/// worker's pull loop). Owns the fd.
class FdTransport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport();
  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends `line` plus a trailing '\n'. Returns false when the peer is
  /// gone (EPIPE/ECONNRESET — never raises SIGPIPE).
  bool send_line(const std::string& line);

  /// Sends raw bytes with no framing — only the fault-injection harness
  /// uses this, to model a worker crashing mid-record (half a line, no
  /// terminator).
  bool send_raw(const std::string& bytes);

  /// Blocks for the next complete line. Returns false on EOF, on error,
  /// or once the peer sends a frame over FrameSplitter::kMaxFrameBytes;
  /// eof_truncated() then tells whether the stream died mid-line.
  bool recv_line(std::string* line);

  /// After recv_line returned false: true when unterminated bytes were
  /// pending (the peer died mid-record, or its frame was oversized).
  bool eof_truncated() const { return splitter_.has_partial(); }

 private:
  int fd_;
  std::mutex send_mu_;
  FrameSplitter splitter_;
};

/// Endpoint spellings the --pull flag accepts:
///   "fd:K"       — an already-connected stream fd (the fork path: the
///                  coordinator passes its child one socketpair end)
///   "host:port"  — TCP connect (the multi-host path)
struct Endpoint {
  bool is_fd = false;
  int fd = -1;
  std::string host;
  unsigned port = 0;
};
std::optional<Endpoint> parse_endpoint(const std::string& text);

/// Connects per the endpoint; returns -1 with a stderr diagnostic on
/// failure.
int connect_endpoint(const Endpoint& ep);

/// TCP plumbing for the multi-host coordinator. tcp_listen binds
/// 0.0.0.0:port (port 0 = ephemeral; tcp_local_port recovers the chosen
/// one) and listens; both return -1 on failure with errno intact.
int tcp_listen(unsigned port);
int tcp_accept(int listen_fd);
int tcp_connect(const std::string& host, unsigned port);
unsigned tcp_local_port(int fd);

}  // namespace dsm::shard
