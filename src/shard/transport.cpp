#include "shard/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/parse.hpp"

namespace dsm::shard {

void FrameSplitter::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

std::optional<std::string> FrameSplitter::next() {
  const std::size_t nl = buf_.find('\n', scanned_);
  scanned_ = std::min(nl, buf_.size());
  if (nl == std::string::npos || oversized()) return std::nullopt;
  std::string line = buf_.substr(0, nl);
  buf_.erase(0, nl + 1);
  scanned_ = 0;
  return line;
}

FdTransport::~FdTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool FdTransport::send_raw(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(send_mu_);
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a dead coordinator must surface as a return value,
    // not a SIGPIPE that kills the worker before it can report.
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool FdTransport::send_line(const std::string& line) {
  return send_raw(line + "\n");
}

bool FdTransport::recv_line(std::string* line) {
  for (;;) {
    if (auto got = splitter_.next()) {
      *line = std::move(*got);
      return true;
    }
    if (splitter_.oversized()) return false;
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) return false;  // EOF; eof_truncated() reports a partial
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    splitter_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::optional<Endpoint> parse_endpoint(const std::string& text) {
  Endpoint ep;
  if (text.rfind("fd:", 0) == 0) {
    unsigned long fd = 0;
    if (!parse_unsigned(text.substr(3), 0, 65535, fd)) return std::nullopt;
    ep.is_fd = true;
    ep.fd = static_cast<int>(fd);
    return ep;
  }
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  unsigned long port = 0;
  if (!parse_unsigned(text.substr(colon + 1), 1, 65535, port))
    return std::nullopt;
  ep.host = text.substr(0, colon);
  ep.port = static_cast<unsigned>(port);
  return ep;
}

int connect_endpoint(const Endpoint& ep) {
  if (ep.is_fd) return ep.fd;
  const int fd = tcp_connect(ep.host, ep.port);
  if (fd < 0)
    std::fprintf(stderr, "pull worker: connect %s:%u: %s\n", ep.host.c_str(),
                 ep.port, std::strerror(errno));
  return fd;
}

int tcp_listen(unsigned port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

int tcp_accept(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

int tcp_connect(const std::string& host, unsigned port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0)
    return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

unsigned tcp_local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

}  // namespace dsm::shard
