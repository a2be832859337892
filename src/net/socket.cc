#include "src/net/socket.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <limits>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace dpjl {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Numeric IPv4 only (plus the "localhost" spelling): the serving tier
/// addresses peers explicitly, so there is no resolver dependency to make
/// tests flaky or sandboxes unhappy.
Result<in_addr> ParseHost(const std::string& host) {
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  in_addr address{};
  if (inet_pton(AF_INET, numeric.c_str(), &address) != 1) {
    return Status::InvalidArgument(
        "bad host '" + host + "' (expected a numeric IPv4 address)");
  }
  return address;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> ListenOn(const std::string& host, int port, int* bound_port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port must lie in [0, 65535] (0 = pick)");
  }
  DPJL_ASSIGN_OR_RETURN(const in_addr address, ParseHost(host));
  Socket listener(::socket(AF_INET, SOCK_STREAM, 0));
  if (!listener.valid()) {
    return Status::Internal(Errno("socket() failed"));
  }
  const int reuse = 1;
  ::setsockopt(listener.fd(), SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in bind_to{};
  bind_to.sin_family = AF_INET;
  bind_to.sin_addr = address;
  bind_to.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener.fd(), reinterpret_cast<const sockaddr*>(&bind_to),
             sizeof(bind_to)) != 0) {
    return Status::Unavailable(Errno("bind(" + host + ":" +
                                     std::to_string(port) + ") failed"));
  }
  if (::listen(listener.fd(), SOMAXCONN) != 0) {
    return Status::Unavailable(Errno("listen() failed"));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Status::Internal(Errno("getsockname() failed"));
  }
  *bound_port = static_cast<int>(ntohs(bound.sin_port));
  return listener;
}

Result<Socket> AcceptConnection(const Socket& listener) {
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    switch (errno) {
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
      case ECONNABORTED:
      case EINTR:
        return Status::ResourceExhausted(Errno("accept() failed"));
      default:
        return Status::Unavailable(Errno("accept() failed (listener closed?)"));
    }
  }
  return Socket(fd);
}

Result<Socket> ConnectTo(const std::string& host, int port,
                         int64_t timeout_ms) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port must lie in [1, 65535]");
  }
  DPJL_ASSIGN_OR_RETURN(const in_addr address, ParseHost(host));
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return Status::Internal(Errno("socket() failed"));
  }
  // Non-blocking connect + poll gives the bounded wait; the socket goes
  // back to blocking mode afterwards (frame reads are bounded separately
  // via SO_RCVTIMEO).
  const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
  ::fcntl(socket.fd(), F_SETFL, flags | O_NONBLOCK);
  sockaddr_in peer{};
  peer.sin_family = AF_INET;
  peer.sin_addr = address;
  peer.sin_port = htons(static_cast<uint16_t>(port));
  const std::string endpoint = host + ":" + std::to_string(port);
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&peer),
                sizeof(peer)) != 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable(Errno("connect(" + endpoint + ") failed"));
    }
    pollfd waiting{};
    waiting.fd = socket.fd();
    waiting.events = POLLOUT;
    const int timeout =
        timeout_ms <= 0 ? -1
                        : static_cast<int>(std::min<int64_t>(
                              timeout_ms, std::numeric_limits<int>::max()));
    const int ready = ::poll(&waiting, 1, timeout);
    if (ready <= 0) {
      return Status::Unavailable("connect(" + endpoint + ") timed out after " +
                                 std::to_string(timeout_ms) + "ms");
    }
    int error = 0;
    socklen_t error_len = sizeof(error);
    ::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &error, &error_len);
    if (error != 0) {
      return Status::Unavailable("connect(" + endpoint +
                                 ") failed: " + std::strerror(error));
    }
  }
  ::fcntl(socket.fd(), F_SETFL, flags);
  const int nodelay = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
               sizeof(nodelay));
  return socket;
}

Status SetRecvTimeout(const Socket& socket, int64_t timeout_ms) {
  if (!socket.valid()) return Status::InvalidArgument("invalid socket");
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
      0) {
    return Status::Internal(Errno("setsockopt(SO_RCVTIMEO) failed"));
  }
  return Status::OK();
}

Status SendAll(const Socket& socket, std::string_view bytes) {
  if (!socket.valid()) return Status::InvalidArgument("invalid socket");
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE here instead of killing the
    // process with SIGPIPE.
    const ssize_t n = ::send(socket.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("send() failed"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvExact(const Socket& socket, size_t n, std::string* out) {
  if (!socket.valid()) return Status::InvalidArgument("invalid socket");
  const size_t start = out->size();
  out->resize(start + n);
  size_t received = 0;
  while (received < n) {
    const ssize_t got =
        ::recv(socket.fd(), out->data() + start + received, n - received, 0);
    if (got == 0) {
      return Status::Unavailable("connection closed by peer");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Unavailable("read timed out waiting for the peer");
      }
      return Status::Unavailable(Errno("recv() failed"));
    }
    received += static_cast<size_t>(got);
  }
  return Status::OK();
}

}  // namespace net
}  // namespace dpjl
