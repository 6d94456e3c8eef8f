#include "server/socket.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/serialize.hpp"

namespace sva {

namespace {

// Budgeted waits poll in short slices so an expired deadline is noticed
// within one slice even when the descriptor never becomes ready.
constexpr int kIoPollSliceMs = 50;

[[noreturn]] void throw_errno(const std::string& what) {
  const int saved = errno;
  throw SocketError(what + ": " + std::strerror(saved), saved);
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw SocketError("socket path '" + path +
                      "' is empty or too long for sockaddr_un");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags < 0 || ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) < 0)
    throw_errno("fcntl(FD_CLOEXEC)");
}

Fd make_socket(int family, bool tcp) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0)
    throw_errno(family == AF_UNIX ? "socket(AF_UNIX)" : "socket(AF_INET)");
  Fd owned(fd);
  adopt_stream_socket(fd, tcp);
  return owned;
}

/// Shared tail of both listen paths: bind + listen with uniform errors.
/// The Unix path runs its stale-file reclaim before calling this; the
/// TCP path relies on SO_REUSEADDR instead (its "stale socket" is a
/// TIME_WAIT address, which the kernel reclaims for us).
Fd bind_and_listen(Fd fd, const sockaddr* addr, socklen_t addr_len,
                   const std::string& what, int backlog) {
  if (::bind(fd.get(), addr, addr_len) != 0)
    throw_errno("bind('" + what + "')");
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen('" + what + "')");
  return fd;
}

int poll_events(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_errno("poll");
  if (rc == 0) return 0;
  if (pfd.revents & (POLLERR | POLLNVAL)) return -1;
  // POLLHUP with pending bytes still reads; bare POLLHUP is a hangup.
  if ((pfd.revents & POLLHUP) && !(pfd.revents & events)) return -1;
  return 1;
}

[[noreturn]] void throw_slow(const char* op, std::size_t done,
                             std::size_t total) {
  throw SlowPeerError(std::string(op) + " deadline expired after " +
                      std::to_string(done) + "/" + std::to_string(total) +
                      " bytes");
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    close_now();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::close_now() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string Endpoint::describe() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& uri) {
  Endpoint ep;
  if (uri.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::Unix;
    ep.path = uri.substr(5);
    if (ep.path.empty())
      throw SocketError("endpoint '" + uri + "' has an empty socket path");
    return ep;
  }
  if (uri.rfind("tcp:", 0) == 0) {
    const std::string rest = uri.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size())
      throw SocketError("endpoint '" + uri +
                        "' is not of the form tcp:HOST:PORT");
    ep.kind = Endpoint::Kind::Tcp;
    ep.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port > 65535)
      throw SocketError("endpoint '" + uri + "' has an invalid port '" +
                        port_str + "'");
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  // Bare path: back-compat shorthand for unix:PATH.
  ep.kind = Endpoint::Kind::Unix;
  ep.path = uri;
  if (ep.path.empty()) throw SocketError("endpoint is empty");
  return ep;
}

void adopt_stream_socket(int fd, bool tcp) {
  set_cloexec(fd);
  if (tcp) {
    const int one = 1;
    // Frames go out as one buffer; Nagle would only delay the tail.
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0)
      throw_errno("setsockopt(TCP_NODELAY)");
  }
}

Fd unix_listen(const std::string& path, int backlog) {
  const sockaddr_un addr = make_addr(path);
  // Reclaim a stale socket file: a connect() that is refused proves no
  // daemon owns it.  A successful probe means the address is live.
  {
    Fd probe = make_socket(AF_UNIX, /*tcp=*/false);
    if (::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      throw SocketError("socket '" + path +
                        "' is already served by a live daemon");
    if (errno == ECONNREFUSED) ::unlink(path.c_str());
  }
  Fd fd = make_socket(AF_UNIX, /*tcp=*/false);
  return bind_and_listen(std::move(fd),
                         reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr), path, backlog);
}

Fd unix_connect(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  Fd fd = make_socket(AF_UNIX, /*tcp=*/false);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) throw_errno("connect('" + path + "')");
  return fd;
}

namespace {

/// Resolve host:port to the first usable IPv4/IPv6 stream address.
struct ResolvedAddr {
  sockaddr_storage addr{};
  socklen_t len = 0;
  int family = AF_INET;
};

ResolvedAddr resolve_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &list);
  if (rc != 0)
    throw SocketError("getaddrinfo('" + host + "'): " + ::gai_strerror(rc));
  ResolvedAddr out;
  out.family = list->ai_family;
  out.len = static_cast<socklen_t>(list->ai_addrlen);
  std::memcpy(&out.addr, list->ai_addr, list->ai_addrlen);
  ::freeaddrinfo(list);
  return out;
}

}  // namespace

Fd tcp_listen(const std::string& host, std::uint16_t port, int backlog,
              std::uint16_t* bound_port) {
  const ResolvedAddr resolved = resolve_tcp(host, port);
  Fd fd = make_socket(resolved.family, /*tcp=*/true);
  const int one = 1;
  // Restarting the daemon must not wait out TIME_WAIT on the old address.
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0)
    throw_errno("setsockopt(SO_REUSEADDR)");
  const std::string what = host + ":" + std::to_string(port);
  fd = bind_and_listen(std::move(fd),
                       reinterpret_cast<const sockaddr*>(&resolved.addr),
                       resolved.len, what, backlog);
  if (bound_port != nullptr) {
    sockaddr_storage bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0)
      throw_errno("getsockname");
    if (bound.ss_family == AF_INET)
      *bound_port =
          ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
    else
      *bound_port =
          ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
  }
  return fd;
}

Fd tcp_connect(const std::string& host, std::uint16_t port) {
  const ResolvedAddr resolved = resolve_tcp(host, port);
  Fd fd = make_socket(resolved.family, /*tcp=*/true);
  int rc;
  do {
    rc = ::connect(fd.get(),
                   reinterpret_cast<const sockaddr*>(&resolved.addr),
                   resolved.len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0)
    throw_errno("connect('tcp:" + host + ":" + std::to_string(port) + "')");
  return fd;
}

Fd endpoint_connect(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::Unix) return unix_connect(ep.path);
  return tcp_connect(ep.host, ep.port);
}

int poll_readable(int fd, int timeout_ms) {
  return poll_events(fd, POLLIN, timeout_ms);
}

int poll_any_readable(const int* fds, std::size_t n, int timeout_ms) {
  pollfd pfds[8];
  if (n > sizeof pfds / sizeof pfds[0])
    throw SocketError("poll_any_readable supports at most 8 descriptors");
  for (std::size_t i = 0; i < n; ++i) {
    pfds[i] = pollfd{};
    pfds[i].fd = fds[i];
    pfds[i].events = POLLIN;
  }
  int rc;
  do {
    rc = ::poll(pfds, static_cast<nfds_t>(n), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_errno("poll");
  if (rc == 0) return -1;
  for (std::size_t i = 0; i < n; ++i)
    if (pfds[i].revents != 0) return static_cast<int>(i);
  return -1;
}

bool peer_disconnected(int fd) {
  // Readable + zero-byte peek == orderly shutdown from the peer.  A
  // pending frame (readable, nonzero peek) is not a disconnect.
  if (poll_readable(fd, 0) == -1) return true;
  char byte;
  ssize_t n;
  do {
    n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return true;
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
  return false;
}

void write_all(int fd, const void* data, std::size_t n,
               const Deadline& deadline) {
  const char* p = static_cast<const char*>(data);
  const std::size_t total = n;
  while (n > 0) {
    if (deadline.valid()) {
      const int wait = deadline.remaining_ms(kIoPollSliceMs);
      if (wait == 0) throw_slow("write", total - n, total);
      // Bounded wait for buffer space; -1 (hangup) falls through to
      // send(), which surfaces the precise error.
      if (poll_events(fd, POLLOUT, wait) == 0) continue;
    }
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, never SIGPIPE.
    const int flags = MSG_NOSIGNAL | (deadline.valid() ? MSG_DONTWAIT : 0);
    const ssize_t written = ::send(fd, p, n, flags);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (deadline.valid() && (errno == EAGAIN || errno == EWOULDBLOCK))
        continue;
      throw_errno("send");
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
}

bool read_exact(int fd, void* data, std::size_t n,
                const Deadline& deadline) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    if (deadline.valid()) {
      const int wait = deadline.remaining_ms(kIoPollSliceMs);
      if (wait == 0) throw_slow("read", got, n);
      if (poll_readable(fd, wait) == 0) continue;
    }
    const int flags = deadline.valid() ? MSG_DONTWAIT : 0;
    const ssize_t r = ::recv(fd, p + got, n - got, flags);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (deadline.valid() && (errno == EAGAIN || errno == EWOULDBLOCK))
        continue;
      throw_errno("recv");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a boundary
      throw SocketError("peer closed the connection mid-read (" +
                        std::to_string(got) + "/" + std::to_string(n) +
                        " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void write_frame(int fd, const Frame& frame, const Deadline& deadline) {
  const std::string wire = encode_frame(frame);
  write_all(fd, wire.data(), wire.size(), deadline);
}

std::optional<Frame> read_frame(int fd, const Deadline& deadline,
                                std::size_t* wire_bytes) {
  std::uint8_t header[8];
  if (!read_exact(fd, header, sizeof header, deadline)) return std::nullopt;
  ByteReader r(std::string_view(reinterpret_cast<const char*>(header),
                                sizeof header));
  const std::uint32_t magic = r.u32();
  const std::uint32_t len = r.u32();
  if (magic != kFrameMagic)
    throw ProtocolError(ProtoStatus::BadMagic,
                        "frame does not start with the SVAF magic");
  if (len > kMaxFramePayload)
    throw ProtocolError(ProtoStatus::Oversized,
                        "frame payload length " + std::to_string(len) +
                            " exceeds the protocol maximum");
  std::string payload(len, '\0');
  if (len > 0 && !read_exact(fd, payload.data(), payload.size(), deadline))
    throw ProtocolError(ProtoStatus::Truncated,
                        "peer closed the connection inside a frame");
  if (wire_bytes != nullptr) *wire_bytes = sizeof header + payload.size();
  return decode_frame_payload(payload);
}

}  // namespace sva
