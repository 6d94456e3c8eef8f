#pragma once
// Connection supervisor: one supervised client connection of the daemon.
//
// Conn wraps an accepted descriptor (either transport) with the
// defenses the bare socket layer does not provide:
//
//   - per-operation read/write deadlines, absolute per frame, so a
//     slow-loris peer dripping bytes cannot hold a handler thread --
//     an expired budget throws SlowPeerError and the server evicts the
//     connection (counted in server.conn.evicted_slow);
//   - an idle budget the handler loop checks between frames, so parked
//     connections are reclaimed too;
//   - byte accounting (server.conn.bytes_{in,out}) and the
//     server.conn.{read,write} failpoints, which fire before any byte
//     moves so an injected fault is always a clean connection drop the
//     client's transient-retry path can absorb;
//   - the accepted/active connection gauges (server.conn.accepted,
//     server.conn.active -- the latter decremented on close).
//
// The shed path (--max-conns exceeded) never constructs a Conn: the
// server answers Busy on the raw descriptor under a small write budget
// and closes it, counted in server.conn.shed_busy.

#include <cstdint>
#include <optional>

#include "server/socket.hpp"

namespace sva {

/// Per-connection IO budgets, all in milliseconds.  A read/write budget
/// covers one whole frame; the idle budget covers the gap between
/// frames.  0 disables that budget (tests; never the CLI defaults).
struct ConnLimits {
  std::uint64_t read_timeout_ms = 10'000;
  std::uint64_t write_timeout_ms = 10'000;
  std::uint64_t idle_timeout_ms = 300'000;
};

class Conn {
 public:
  Conn(Fd fd, ConnLimits limits);
  ~Conn();
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&&) = delete;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_.get(); }

  /// The idle budget starting now (no deadline when disabled); the
  /// handler loop re-arms it after every served frame.
  Deadline idle_deadline() const;

  /// Receive one frame under the read budget.  The caller has already
  /// seen the descriptor readable, so the budget clock starts with data
  /// pending.  Returns nullopt on clean EOF at a frame boundary; throws
  /// SlowPeerError on budget expiry, ProtocolError / SocketError as the
  /// socket layer does.
  std::optional<Frame> read_frame();

  /// Send one frame under the write budget.  Throws SlowPeerError when
  /// the peer will not drain its socket in time.
  void write_frame(const Frame& frame);

 private:
  Fd fd_;
  ConnLimits limits_;
  bool counted_ = false;  ///< owns one unit of server.conn.active
};

}  // namespace sva
