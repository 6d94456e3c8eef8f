#include "util/cancel.hpp"

#include <csignal>
#include <limits>
#include <string>

namespace sva {

const char* cancel_reason_name(CancelReason reason) {
  switch (reason) {
    case CancelReason::None: return "none";
    case CancelReason::Api: return "api";
    case CancelReason::Signal: return "signal";
    case CancelReason::Deadline: return "deadline";
    case CancelReason::Watchdog: return "watchdog";
  }
  return "unknown";
}

Deadline Deadline::after_seconds(double seconds) {
  Deadline d;
  d.valid_ = true;
  d.at_ = std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
  return d;
}

Deadline Deadline::after_ms(std::uint64_t ms) {
  Deadline d;
  d.valid_ = true;
  d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  return d;
}

int Deadline::remaining_ms(int cap) const {
  if (!valid_) return cap;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        at_ - std::chrono::steady_clock::now())
                        .count();
  if (left <= 0) return 0;
  return left < cap ? static_cast<int>(left) : cap;
}

double Deadline::remaining_seconds() const {
  if (!valid_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(at_ - std::chrono::steady_clock::now())
      .count();
}

bool CancelToken::poll() const {
  if (heartbeat_ != nullptr)
    heartbeat_->fetch_add(1, std::memory_order_relaxed);
  if (tripped_.load(std::memory_order_relaxed)) return true;
  if (deadline_.expired()) {
    request_cancel(CancelReason::Deadline);
    return true;
  }
  return false;
}

void CancelToken::check() const {
  if (!poll()) return;
  switch (reason()) {
    case CancelReason::Deadline:
      throw CancelledError("deadline exceeded");
    case CancelReason::Signal:
      throw CancelledError("cancelled by signal " +
                           std::to_string(signal_number()));
    case CancelReason::Watchdog:
      throw CancelledError("cancelled by watchdog (job stalled)");
    default:
      throw CancelledError("cancelled");
  }
}

void CancelToken::request_cancel(CancelReason reason,
                                 int signal_number) const {
  // First trip wins: the reason/signo stores only land when we are the
  // ones flipping tripped_ from false to true.
  bool expected = false;
  if (tripped_.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    reason_.store(static_cast<int>(reason), std::memory_order_release);
    signo_.store(signal_number, std::memory_order_release);
  }
}

void CancelToken::reset() {
  tripped_.store(false, std::memory_order_release);
  reason_.store(0, std::memory_order_release);
  signo_.store(0, std::memory_order_release);
  deadline_ = Deadline();
}

CancelToken& global_cancel_token() {
  static CancelToken token;
  return token;
}

namespace {

// Async-signal-safe: request_cancel on the sticky-flag path is two
// lock-free atomic ops and the token's static init is forced before the
// handler can fire (install touches it first).
extern "C" void sva_cancel_signal_handler(int signo) {
  global_cancel_token().request_cancel(CancelReason::Signal, signo);
}

}  // namespace

void install_cancel_signal_handlers() {
  (void)global_cancel_token();  // complete static init before handlers arm
  std::signal(SIGINT, sva_cancel_signal_handler);
  std::signal(SIGTERM, sva_cancel_signal_handler);
}

}  // namespace sva
