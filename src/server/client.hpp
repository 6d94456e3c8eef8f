#pragma once
// Client side of the `sva serve` protocol.
//
// `sva analyze/optimize --connect URI` builds the same job spec the
// local command would execute, ships it to the daemon, and feeds the
// response back through the shared emit_job_result() path -- so the
// bytes the user sees (tables, CSV artifacts, exit codes, cancellation
// reports) are identical to a direct run, minus the process-start and
// flow-construction cost the daemon already paid.  The URI picks the
// transport: `unix:PATH` (or a bare path) for a local daemon,
// `tcp:HOST:PORT` for a remote one -- both speak the same frames and
// the same retry classification (a refused TCP connect is ECONNREFUSED
// exactly like a refused Unix connect).
//
// Failures are retried only when nothing observable can have happened:
//
//   transient (retried, --retries N)    Busy rejection (carrying the
//     server's retry_after_ms hint; a connection shed over --max-conns
//     answers one too), connect refused (no daemon had the socket yet /
//     it was restarting), and a connection closed or reset before the
//     first response byte (the daemon dropped it deliberately after a
//     lane crash or connection fault, or shed it before the request was
//     written -- nothing user-visible was delivered).  Each retry
//     resubmits the identical spec, which the server deduplicates by
//     content hash, so retries are idempotent end to end.  All of these
//     run in the one with_retry loop; a batch round is one attempt.
//
//   permanent (never retried)    a response delivered even partially --
//     a truncated read mid-frame means bytes reached the user-visible
//     path and a blind re-run could double-deliver; and every job-level
//     Error/Cancelled response, which is a real answer, not a fault.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "server/socket.hpp"
#include "util/retry.hpp"

namespace sva {

/// One connection to a serving daemon.
class ServerClient {
 public:
  /// Connects immediately; throws SocketError when no daemon listens at
  /// `endpoint` (`unix:PATH`, `tcp:HOST:PORT`, or a bare socket path).
  explicit ServerClient(const std::string& endpoint);

  /// Send one request frame and block for the response frame.  Throws
  /// SocketError / ProtocolError on transport or framing failures
  /// (including the daemon dropping the connection mid-job).
  Frame call(const Frame& request);

 private:
  Fd fd_;
};

/// Client-side retry knobs (--retries N).  `retries` is the number of
/// re-attempts after the first try (N + 1 attempts in total, a batch
/// round counting as one); 0 preserves the classic fail-immediately
/// behaviour.
struct ClientRetryConfig {
  int retries = 0;
  std::chrono::milliseconds initial_backoff{50};
  /// Uniform random extra per retry so clients rejected together spread
  /// out instead of re-colliding.
  std::chrono::milliseconds max_jitter{25};
};

/// A Busy rejection travelling through the transient-retry machinery.
/// Carries the response frame so an exhausted retry budget can still
/// deliver the Busy to the user exactly as a retry-less call would, and
/// the server's retry_after_ms hint feeds the backoff.
class BusyRetryError : public TransientError {
 public:
  BusyRetryError(Frame frame, const BusyResponse& busy)
      : TransientError("server busy (queue " +
                           std::to_string(busy.queue_depth) + "/" +
                           std::to_string(busy.max_depth) + ")",
                       busy.retry_after_ms),
        frame_(std::move(frame)) {}
  const Frame& frame() const { return frame_; }

 private:
  Frame frame_;
};

/// One request/response exchange with bounded transient-only retry (see
/// the classification above).  A Busy response that survives the retry
/// budget is *returned*, not thrown, so callers handle it uniformly.
Frame call_server_with_retry(const std::string& endpoint,
                             const Frame& request,
                             const ClientRetryConfig& retry = {});

/// Ship one analyze/optimize/ssta request frame to the daemon at
/// `endpoint` and deliver the response exactly as the local command
/// would (stdout bytes, artifact files, cancellation report).  Returns
/// the process exit code; a Busy rejection that survives the retry
/// budget reports on stderr and exits with the fatal code.
int run_remote_job(const std::string& endpoint, const Frame& request,
                   const ClientRetryConfig& retry = {});

/// Ship N job specs over one connection (`sva batch FILE`) and deliver
/// every slot in submission order through the same emit path.  Each
/// round is one attempt of the shared retry loop: slots that landed are
/// kept, and while any slot is still Busy the round fails transiently
/// with the largest Busy hint, so the next attempt resubmits only those
/// slots.  Once the budget (retry.retries re-attempts, kMaxRetrySleep of
/// summed sleeps) is spent, a logged give-up delivers the surviving Busy
/// slots as failures.  `labels` (when sized like the items) captions
/// each slot's output header.  Returns 0 when every slot exits 0, else
/// kExitJobsFailed.
int run_remote_batch(const std::string& endpoint, const BatchRequest& request,
                     const std::vector<std::string>& labels = {},
                     const ClientRetryConfig& retry = {});

/// Fetch the daemon's server-wide MetricsRegistry snapshot.
MetricsResponse fetch_remote_metrics(const std::string& endpoint);

/// Fetch the daemon's liveness snapshot (`sva ping`).
HealthResponse fetch_remote_health(const std::string& endpoint);

/// Ask the daemon to drain and exit.  Returns once the ack arrives.
void request_remote_shutdown(const std::string& endpoint);

}  // namespace sva
