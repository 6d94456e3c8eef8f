#pragma once
// Bounded retry-with-backoff for transient failures.
//
// Cache reads can fail transiently (NFS hiccup, AV scanner holding the
// file, an injected "serialize.read" fault); retrying a couple of times
// with a short exponential backoff converts those into a warm start that
// is bit-identical to an untroubled run.  Permanent conditions are not
// retried: FileMissingError (a missing snapshot is the normal cold start)
// rethrows immediately, and anything still failing after max_attempts
// propagates to the caller's degradation path.
//
// The daemon client reuses the same loop with two extra knobs.
// transient_only narrows the retried set to TransientError -- the classes
// where nothing observable happened beyond the attempt itself (Busy,
// connect-refused on either transport: a down TCP daemon is the same
// ECONNREFUSED as a missing Unix socket, EOF before any response byte),
// so a retry is idempotent by construction.  max_jitter adds a uniform random slice to
// each backoff so concurrent clients rejected together do not re-collide
// on the same tick.
//
// The backoff doubles after every attempt, and the summed sleeps of one
// with_retry call are capped at kMaxRetrySleep, so a server that keeps
// answering Busy with long hints cannot stall its client indefinitely.
//
// Every swallowed failure counts the "io.retries" metric, so soak runs
// show how often the transient path actually fired.

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

namespace sva {

/// A failure the caller may safely repeat: the attempt had no observable
/// effect (admission was refused, the connection never opened, or the
/// peer hung up before the first response byte).  May carry a
/// server-provided earliest-useful-retry hint (0 = none).
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what,
                          std::uint64_t retry_after_ms = 0)
      : Error(what), retry_after_ms_(retry_after_ms) {}
  std::uint64_t retry_after_ms() const { return retry_after_ms_; }

 private:
  std::uint64_t retry_after_ms_;
};

/// Cap on the summed sleeps of one with_retry call: once reached, the
/// next failure is rethrown whatever attempts remain.
inline constexpr std::chrono::milliseconds kMaxRetrySleep{60'000};

struct RetryPolicy {
  int max_attempts = 3;
  std::chrono::milliseconds initial_backoff{1};
  /// Extra uniform-random sleep in [0, max_jitter] per retry; 0 keeps the
  /// backoff deterministic (the cache-IO callers' behaviour).
  std::chrono::milliseconds max_jitter{0};
  /// Retry only TransientError; any other sva::Error rethrows
  /// immediately.  Off by default: the cache-IO callers retry every
  /// recoverable Error as before.
  bool transient_only = false;
};

namespace retry_detail {
inline std::chrono::milliseconds jitter(std::chrono::milliseconds max) {
  if (max.count() <= 0) return std::chrono::milliseconds{0};
  thread_local std::mt19937_64 rng{std::random_device{}()};
  std::uniform_int_distribution<std::int64_t> dist(0, max.count());
  return std::chrono::milliseconds{dist(rng)};
}
}  // namespace retry_detail

/// Run `fn`, retrying transient sva::Error failures per `policy`.  Returns
/// fn()'s value; rethrows FileMissingError immediately and the last error
/// once attempts or the kMaxRetrySleep budget are exhausted.  A
/// TransientError's retry_after_ms hint raises (never lowers below
/// itself) the next sleep; every sleep is clipped to the budget left.
template <typename Fn>
auto with_retry(const char* what, const RetryPolicy& policy, Fn&& fn)
    -> decltype(fn()) {
  auto backoff = policy.initial_backoff;
  std::chrono::milliseconds slept{0};
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const FileMissingError&) {
      throw;  // permanent: absence is a state, not a fault
    } catch (const Error& e) {
      if (attempt >= policy.max_attempts || slept >= kMaxRetrySleep) throw;
      const auto* transient = dynamic_cast<const TransientError*>(&e);
      if (policy.transient_only && transient == nullptr) throw;
      MetricsRegistry::global().counter("io.retries").add();
      log_debug("retrying ", what, " (attempt ", attempt, "/",
                policy.max_attempts, "): ", e.what());
      auto sleep_for = backoff;
      if (transient != nullptr && transient->retry_after_ms() > 0)
        sleep_for = std::max(
            sleep_for, std::chrono::milliseconds(
                           static_cast<std::int64_t>(transient->retry_after_ms())));
      sleep_for = std::min(sleep_for, kMaxRetrySleep - slept) +
                  retry_detail::jitter(policy.max_jitter);
      std::this_thread::sleep_for(sleep_for);
      slept += sleep_for;
      backoff *= 2;
    }
  }
}

}  // namespace sva
