#include "server/client.hpp"

#include <cerrno>
#include <cstdio>
#include <optional>
#include <vector>

#include "engine/options.hpp"

namespace sva {

namespace {

/// Map a response frame onto the shared JobResult emit path.  Exit-code
/// semantics mirror a direct run: results carry their own code,
/// cancellations exit kExitCancelled, server-side errors and Busy
/// rejections exit kExitFatal with a stderr report.
int deliver_response(const Frame& response) {
  switch (response.type) {
    case MsgType::ResultResponse:
      return emit_job_result(decode_result_response(response.body));
    case MsgType::CancelledResponse: {
      const CancelledResponse c = decode_cancelled_response(response.body);
      JobResult result;
      result.exit_code = kExitCancelled;
      result.output = c.output;
      result.cancelled = true;
      result.cancel_reason = c.reason;
      return emit_job_result(result);
    }
    case MsgType::BusyResponse: {
      const BusyResponse busy = decode_busy_response(response.body);
      if (busy.retry_after_ms > 0)
        std::fprintf(
            stderr,
            "error: server busy (queue %llu/%llu); retry in ~%llu ms\n",
            static_cast<unsigned long long>(busy.queue_depth),
            static_cast<unsigned long long>(busy.max_depth),
            static_cast<unsigned long long>(busy.retry_after_ms));
      else
        std::fprintf(stderr,
                     "error: server busy (queue %llu/%llu); retry later\n",
                     static_cast<unsigned long long>(busy.queue_depth),
                     static_cast<unsigned long long>(busy.max_depth));
      return kExitFatal;
    }
    case MsgType::ErrorResponse: {
      const ErrorResponse err = decode_error_response(response.body);
      std::fprintf(stderr, "error: server (%s): %s\n",
                   proto_status_name(err.code), err.message.c_str());
      return kExitFatal;
    }
    default:
      std::fprintf(stderr, "error: unexpected server response '%s'\n",
                   msg_type_name(response.type));
      return kExitFatal;
  }
}

/// One exchange: connect, send, read one response (a Busy answer is
/// returned like any other).  Failures where the request cannot have
/// produced anything observable are rethrown as TransientError for the
/// retry loop; everything else propagates as-is.  The refused-connect
/// classification is transport-agnostic: a TCP daemon that is down or
/// restarting surfaces the same ECONNREFUSED a Unix one does.
Frame exchange(const std::string& endpoint, const Frame& request) {
  Fd fd;
  try {
    fd = endpoint_connect(parse_endpoint(endpoint));
  } catch (const SocketError& e) {
    if (e.errno_value() == ECONNREFUSED)
      throw TransientError(e.what());  // daemon restarting / not up yet
    throw;
  }
  std::optional<Frame> response;
  try {
    write_frame(fd.get(), request);
    response = read_frame(fd.get());
  } catch (const SocketError& e) {
    // The daemon closed the connection before answering: a reset with our
    // request bytes still unread (an injected connection fault, an
    // eviction), or EPIPE when a shed connection was closed before our
    // request went out.  Nothing was delivered -- delivery only ever
    // happens after a whole decoded frame -- so a resubmit is as safe as
    // the EOF case below.
    if (e.errno_value() == ECONNRESET || e.errno_value() == EPIPE)
      throw TransientError(
          std::string("connection closed before a response arrived: ") +
          e.what());
    throw;
  }
  if (!response)
    // EOF before any response byte: the daemon dropped the connection
    // deliberately (crashed lane) or died whole.  The job never
    // delivered anything, so a resubmit is safe.
    throw TransientError("server closed the connection without a response");
  return *response;
}

RetryPolicy client_policy(const ClientRetryConfig& retry) {
  RetryPolicy policy;
  policy.max_attempts = retry.retries + 1;
  policy.initial_backoff = retry.initial_backoff;
  policy.max_jitter = retry.max_jitter;
  policy.transient_only = true;
  return policy;
}

/// The slots of one batch round's response.  A connection shed with
/// Busy (--max-conns) answers every submitted slot with that Busy.
std::vector<BatchSlot> round_slots(const Frame& response,
                                   std::size_t submitted) {
  if (response.type == MsgType::BusyResponse)
    return std::vector<BatchSlot>(submitted,
                                  {MsgType::BusyResponse, response.body});
  if (response.type != MsgType::BatchResponse)
    throw ProtocolError(ProtoStatus::BadType,
                        std::string("expected batch_response, got ") +
                            msg_type_name(response.type));
  BatchResponse decoded = decode_batch_response(response.body);
  if (decoded.slots.size() != submitted)
    throw ProtocolError(ProtoStatus::BadBody,
                        "batch response carries " +
                            std::to_string(decoded.slots.size()) +
                            " slots for " + std::to_string(submitted) +
                            " submitted specs");
  return std::move(decoded.slots);
}

}  // namespace

ServerClient::ServerClient(const std::string& endpoint)
    : fd_(endpoint_connect(parse_endpoint(endpoint))) {}

Frame ServerClient::call(const Frame& request) {
  write_frame(fd_.get(), request);
  std::optional<Frame> response = read_frame(fd_.get());
  if (!response)
    throw SocketError("server closed the connection without a response");
  return *response;
}

Frame call_server_with_retry(const std::string& endpoint,
                             const Frame& request,
                             const ClientRetryConfig& retry) {
  try {
    return with_retry("server call", client_policy(retry), [&] {
      Frame response = exchange(endpoint, request);
      if (response.type == MsgType::BusyResponse) {
        const BusyResponse busy = decode_busy_response(response.body);
        throw BusyRetryError(std::move(response), busy);
      }
      return response;
    });
  } catch (const BusyRetryError& e) {
    // Retry budget exhausted on Busy: hand the rejection to the caller
    // as the response it is.
    return e.frame();
  }
}

int run_remote_job(const std::string& endpoint, const Frame& request,
                   const ClientRetryConfig& retry) {
  return deliver_response(call_server_with_retry(endpoint, request, retry));
}

int run_remote_batch(const std::string& endpoint, const BatchRequest& request,
                     const std::vector<std::string>& labels,
                     const ClientRetryConfig& retry) {
  const std::size_t n = request.items.size();
  std::vector<BatchSlot> slots(n);
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;

  // One round is one retry attempt: the first ships the whole batch,
  // later ones only the slots still Busy.  Landed slots are kept; while
  // any slot is Busy the round throws the Busy with the largest hint, so
  // the shared loop sleeps max(hint, backoff) like a single-spec retry.
  const auto round = [&] {
    BatchRequest sub;
    sub.items.reserve(pending.size());
    for (const std::size_t i : pending) sub.items.push_back(request.items[i]);
    const std::vector<BatchSlot> landed = round_slots(
        exchange(endpoint, {MsgType::BatchRequest, encode_batch_request(sub)}),
        sub.items.size());
    std::vector<std::size_t> still_busy;
    std::optional<BusyRetryError> busiest;
    for (std::size_t k = 0; k < landed.size(); ++k) {
      slots[pending[k]] = landed[k];
      if (landed[k].type != MsgType::BusyResponse) continue;
      still_busy.push_back(pending[k]);
      const BusyResponse busy = decode_busy_response(landed[k].body);
      if (!busiest || busy.retry_after_ms > busiest->retry_after_ms())
        busiest.emplace(Frame{landed[k].type, landed[k].body}, busy);
    }
    pending = std::move(still_busy);
    if (busiest) throw *busiest;
  };
  try {
    with_retry("batch round", client_policy(retry), round);
  } catch (const BusyRetryError&) {
    std::fprintf(stderr,
                 "batch: giving up on %zu busy slot(s) after %d %s\n",
                 pending.size(), retry.retries,
                 retry.retries == 1 ? "retry" : "retries");
  }

  // Deliver every slot in submission order through the same emit path a
  // single-spec connection uses; the worst slot code picks the overall
  // exit (any failure => kExitJobsFailed, mirroring --keep-going).
  bool any_failed = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (labels.size() == n)
      std::printf("== batch job %zu/%zu: %s ==\n", i + 1, n,
                  labels[i].c_str());
    else
      std::printf("== batch job %zu/%zu ==\n", i + 1, n);
    std::fflush(stdout);
    const int code = deliver_response({slots[i].type, slots[i].body});
    if (code != 0) any_failed = true;
  }
  return any_failed ? kExitJobsFailed : kExitOk;
}

MetricsResponse fetch_remote_metrics(const std::string& endpoint) {
  ServerClient client(endpoint);
  const Frame response = client.call({MsgType::MetricsRequest, ""});
  if (response.type != MsgType::MetricsResponse)
    throw ProtocolError(ProtoStatus::BadType,
                        std::string("expected metrics_response, got ") +
                            msg_type_name(response.type));
  return decode_metrics_response(response.body);
}

HealthResponse fetch_remote_health(const std::string& endpoint) {
  ServerClient client(endpoint);
  const Frame response = client.call({MsgType::HealthRequest, ""});
  if (response.type != MsgType::HealthResponse)
    throw ProtocolError(ProtoStatus::BadType,
                        std::string("expected health_response, got ") +
                            msg_type_name(response.type));
  return decode_health_response(response.body);
}

void request_remote_shutdown(const std::string& endpoint) {
  ServerClient client(endpoint);
  const Frame response = client.call({MsgType::ShutdownRequest, ""});
  if (response.type != MsgType::ShutdownAck)
    throw ProtocolError(ProtoStatus::BadType,
                        std::string("expected shutdown_ack, got ") +
                            msg_type_name(response.type));
}

}  // namespace sva
