#pragma once
// Minimal stream-socket layer under the frame protocol (Unix-domain + TCP).
//
// Everything here is a thin, EINTR-safe wrapper over POSIX sockets with
// the repo's error discipline: failures throw SocketError (an sva::Error,
// so the daemon's per-connection isolation handles them like any other
// recoverable fault), clean EOF is a value, not an exception, and all
// blocking waits are poll()-based with bounded timeouts so the accept
// and connection loops can poll CancelTokens at a fixed cadence.
//
// Both transports share one bind/listen scaffold; the Unix path adds a
// stale-file reclaim step in front of it.  Stale socket files (a previous
// daemon that died without unlinking) are reclaimed at bind time by
// probing with connect(): refused means dead owner, so the path is
// unlinked and rebound; accepted means a live daemon already serves it
// and bind fails loudly.
//
// Every descriptor this layer creates or accepts gets FD_CLOEXEC;
// listeners get SO_REUSEADDR and TCP sockets get TCP_NODELAY (frames are
// written as one contiguous buffer, so Nagle only adds latency).
//
// IO can run under a Deadline budget (util/cancel.hpp; a default-
// constructed Deadline means no budget): the deadline is absolute, so a
// peer dripping one byte per poll interval cannot reset it — when the
// budget expires mid-read or mid-write the call throws SlowPeerError and
// the server evicts the connection.

#include <cstdint>
#include <optional>
#include <string>

#include "server/protocol.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace sva {

/// Socket-level I/O failure (connect refused, mid-frame disconnect, ...).
/// Carries the errno of the failing syscall (0 when none applies) so the
/// client retry layer can classify connect-refused as transient without
/// parsing message text.  The classification is transport-agnostic: a
/// TCP connect() refusal surfaces the same ECONNREFUSED as a Unix one.
class SocketError : public Error {
 public:
  explicit SocketError(const std::string& what, int errno_value = 0)
      : Error(what), errno_value_(errno_value) {}
  int errno_value() const { return errno_value_; }

 private:
  int errno_value_ = 0;
};

/// A read or write missed its Deadline: the peer is too slow (or
/// stalled mid-frame).  Distinct from SocketError so the server can
/// count evictions separately from transport faults.
class SlowPeerError : public SocketError {
 public:
  explicit SlowPeerError(const std::string& what) : SocketError(what) {}
};

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { close_now(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Close eagerly (idempotent).  The destructor calls this.
  void close_now() noexcept;

 private:
  int fd_ = -1;
};

/// Where a daemon lives: `unix:PATH`, `tcp:HOST:PORT`, or a bare path
/// (back-compat shorthand for `unix:PATH`).
struct Endpoint {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;         // Unix socket path
  std::string host;         // TCP host (name or numeric)
  std::uint16_t port = 0;   // TCP port

  /// Round-trippable display form ("unix:/run/sva.sock", "tcp:host:80").
  std::string describe() const;
};

/// Parse a connect/listen URI.  Throws SocketError on a malformed
/// `tcp:` form (missing or non-numeric port, empty host).
Endpoint parse_endpoint(const std::string& uri);

/// Bind + listen on a Unix-domain socket at `path` (see the stale-file
/// policy above).  Throws SocketError when the path is too long for
/// sockaddr_un, already live, or any syscall fails.
Fd unix_listen(const std::string& path, int backlog = 16);

/// Connect to the daemon at `path`.  Throws SocketError on failure.
Fd unix_connect(const std::string& path);

/// Bind + listen on TCP host:port.  Port 0 asks the kernel for an
/// ephemeral port; the port actually bound is stored in *bound_port
/// (when non-null) so callers can advertise it.
Fd tcp_listen(const std::string& host, std::uint16_t port, int backlog = 16,
              std::uint16_t* bound_port = nullptr);

/// Connect to a TCP daemon.  Throws SocketError (errno preserved, so
/// ECONNREFUSED classifies as transient exactly like the Unix path).
Fd tcp_connect(const std::string& host, std::uint16_t port);

/// Connect to either transport.
Fd endpoint_connect(const Endpoint& ep);

/// Mark an accepted/inherited descriptor with the socket options this
/// layer guarantees (FD_CLOEXEC always; TCP_NODELAY when `tcp`).
void adopt_stream_socket(int fd, bool tcp);

/// Wait up to `timeout_ms` for `fd` to become readable.
/// Returns: 1 readable, 0 timeout, -1 hangup/error on the descriptor.
int poll_readable(int fd, int timeout_ms);

/// Wait up to `timeout_ms` for any of `fds[0..n)` to become readable.
/// Returns the index of a ready descriptor (hangup/error counts as
/// ready so the caller's accept/read surfaces the failure), or -1 on
/// timeout.
int poll_any_readable(const int* fds, std::size_t n, int timeout_ms);

/// True once the peer has closed its end (recv MSG_PEEK sees EOF).  Used
/// by the server to notice a client abandoning an in-flight job.
bool peer_disconnected(int fd);

/// Write all `n` bytes (EINTR/short-write safe, SIGPIPE suppressed).
/// Throws SocketError on failure; with a deadline, throws SlowPeerError
/// once the budget expires before the final byte is accepted.
void write_all(int fd, const void* data, std::size_t n,
               const Deadline& deadline = {});

/// Read exactly `n` bytes.  Returns false on clean EOF before the first
/// byte; throws SocketError on EOF mid-read or any error.  With a
/// deadline, throws SlowPeerError once the budget expires — partial
/// progress does not extend it.
bool read_exact(int fd, void* data, std::size_t n,
                const Deadline& deadline = {});

/// Send one protocol frame (encoded into one contiguous buffer, so the
/// peer never observes a torn header/payload boundary).
void write_frame(int fd, const Frame& frame,
                 const Deadline& deadline = {});

/// Receive one protocol frame.  Returns nullopt on clean EOF at a frame
/// boundary (the peer hung up).  Throws ProtocolError on bad magic /
/// oversized / malformed payloads and SocketError on transport failure.
/// `wire_bytes` (when non-null) receives the on-wire size of the frame
/// (header + payload) for byte accounting.
std::optional<Frame> read_frame(int fd, const Deadline& deadline = {},
                                std::size_t* wire_bytes = nullptr);

}  // namespace sva
