#include "server/conn.hpp"

#include <utility>

#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace sva {

namespace {

Counter& counter(const char* name) {
  return MetricsRegistry::global().counter(name);
}

/// A ConnLimits budget from now; 0 disables it (no deadline).
Deadline budget(std::uint64_t ms) {
  return ms > 0 ? Deadline::after_ms(ms) : Deadline();
}

}  // namespace

Conn::Conn(Fd fd, ConnLimits limits)
    : fd_(std::move(fd)), limits_(limits), counted_(true) {
  counter("server.conn.accepted").add();
  counter("server.conn.active").add();
}

Conn::Conn(Conn&& other) noexcept
    : fd_(std::move(other.fd_)),
      limits_(other.limits_),
      counted_(other.counted_) {
  other.counted_ = false;
}

Conn::~Conn() {
  if (counted_) counter("server.conn.active").sub();
}

std::optional<Frame> Conn::read_frame() {
  // The failpoint fires before any byte is consumed, so an injected
  // fault is a clean pre-frame drop the client retries safely.
  SVA_FAILPOINT("server.conn.read");
  std::size_t wire_bytes = 0;
  std::optional<Frame> frame = sva::read_frame(
      fd_.get(), budget(limits_.read_timeout_ms), &wire_bytes);
  counter("server.conn.bytes_in").add(wire_bytes);
  return frame;
}

Deadline Conn::idle_deadline() const {
  return budget(limits_.idle_timeout_ms);
}

void Conn::write_frame(const Frame& frame) {
  // Before the first byte for the same reason as the read-side site: a
  // fault drops the whole response, never a torn frame.
  SVA_FAILPOINT("server.conn.write");
  const std::string wire = encode_frame(frame);
  write_all(fd_.get(), wire.data(), wire.size(),
            budget(limits_.write_timeout_ms));
  counter("server.conn.bytes_out").add(wire.size());
}

}  // namespace sva
