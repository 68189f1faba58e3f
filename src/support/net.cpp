#include "support/net.hpp"

#include <cerrno>
#include <cstring>

#include "support/error.hpp"

extern "C" {
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
}

namespace tensorlib::support::net {

namespace {

bool fillIpv4(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

bool fillUnix(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size());
  return true;
}

}  // namespace

std::string checkEndpoint(const char* flag, const std::string& value,
                          EndpointKind kind) {
  if (kind == EndpointKind::TcpHost) {
    sockaddr_in addr;
    if (!fillIpv4(value, 0, &addr))
      fail(std::string(flag) + " needs a numeric IPv4 address, got '" +
           value + "'");
  } else {
    sockaddr_un addr;
    if (!fillUnix(value, &addr))
      fail(std::string(flag) + " needs a non-empty path of at most " +
           std::to_string(sizeof(addr.sun_path) - 1) + " bytes, got " +
           std::to_string(value.size()) + " bytes");
  }
  return value;
}

int connectTcp(const std::string& host, int port) {
  sockaddr_in addr;
  if (port < 0 || port > 65535 || !fillIpv4(host, port, &addr)) {
    errno = EINVAL;
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  // Request/response lines are small; batching them behind Nagle only adds
  // latency.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int connectUnix(const std::string& path) {
  sockaddr_un addr;
  if (!fillUnix(path, &addr)) {
    errno = EINVAL;
    return -1;
  }
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

int listenTcp(const std::string& host, int port, int backlog, int* boundPort) {
  sockaddr_in addr;
  if (port < 0 || port > 65535 || !fillIpv4(host, port, &addr)) {
    errno = EINVAL;
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, backlog) != 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  if (boundPort != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    *boundPort =
        getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0
            ? ntohs(bound.sin_port)
            : port;
  }
  return fd;
}

int listenUnix(const std::string& path, int backlog) {
  sockaddr_un addr;
  if (!fillUnix(path, &addr)) {
    errno = EINVAL;
    return -1;
  }
  unlink(path.c_str());  // a stale socket file from a crashed server
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, backlog) != 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

bool sendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    // Pipes reject send(); fall back to write() so the client can use one
    // code path for both transports (its SIGPIPE handling covers this).
    if (n < 0 && errno == ENOTSOCK) n = write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Line> LineReader::next() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    const std::size_t length =
        newline != std::string::npos ? newline : buffer_.size();
    if (length > maxLineBytes_) {
      buffer_.clear();
      scanned_ = 0;
      eof_ = true;
      return Line{"", false, true};
    }
    if (newline != std::string::npos) {
      Line line{buffer_.substr(0, newline), true};
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    if (eof_) {
      if (buffer_.empty()) return std::nullopt;
      Line line{std::move(buffer_), false};
      buffer_.clear();
      return line;
    }
    if (wakeFd_ >= 0) {
      pollfd fds[2] = {{fd_, POLLIN, 0}, {wakeFd_, POLLIN, 0}};
      if (poll(fds, 2, -1) < 0 && errno == EINTR) continue;
      if (fds[1].revents != 0) {
        eof_ = true;
        continue;
      }
    }
    char chunk[4096];
    const ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Clean EOF and hard errors (ECONNRESET after a drop) end the stream
    // the same way: whatever is buffered is the partial final line.
    eof_ = true;
  }
}

}  // namespace tensorlib::support::net
