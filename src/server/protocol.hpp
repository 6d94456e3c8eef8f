#pragma once
// Framed request/response protocol of the `sva serve` daemon.
//
// Every message on the Unix-domain socket is one frame:
//
//   [u32 magic "SVAF"][u32 payload_len][payload]
//
// where the payload is a ByteWriter envelope mirroring the sealed-file
// discipline (util/sealed_file.hpp): protocol version, message type, an
// fnv1a64_words checksum of the body, then the length-prefixed body
// bytes.  The byte order is the codec's fixed little-endian, so golden
// frame bytes in the tests are platform-stable.
//
// Malformed input is never undefined behaviour: a bad magic, an
// oversized length, a truncated payload, a checksum mismatch, or an
// unknown type decodes to a ProtocolError carrying a stable ProtoStatus
// code, and the server answers with a structured ErrorResponse (or drops
// the connection when the stream is unframeable) -- the daemon itself
// never dies on client bytes.  A version mismatch is refused explicitly
// (ProtoStatus::VersionMismatch) so old clients get a diagnosable answer
// instead of garbage.
//
// Body codecs for the individual message kinds live here too; the job
// specs they carry are the exact structs the local CLI path executes
// (server/jobs.hpp), which is what makes remote results bit-identical to
// direct runs by construction.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/jobs.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace sva {

/// Frame magic "SVAF" as a little-endian u32, and the protocol version a
/// server refuses to cross.
inline constexpr std::uint32_t kFrameMagic = 0x46415653u;  // "SVAF" (LE)
/// v1: analyze/optimize/metrics/shutdown/ping.  v2: adds SstaRequest.
/// v3: adds Health request/response and the Busy retry_after_ms hint.
/// v4: adds Batch request/response (N job specs over one connection);
/// the same frames also travel over the TCP transport.
inline constexpr std::uint32_t kProtocolVersion = 4;
/// Hard ceiling on one frame's payload: a corrupt length can neither
/// trigger a huge allocation nor stall the reader.
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;  // 64 MiB

/// Stable machine-readable classification of a protocol failure; carried
/// in ErrorResponse.code so clients (and tests) can assert on the cause.
enum class ProtoStatus : std::uint32_t {
  Ok = 0,
  BadMagic = 1,         ///< first 4 bytes are not "SVAF"
  Oversized = 2,        ///< payload length exceeds kMaxFramePayload
  Truncated = 3,        ///< stream ended inside a frame
  VersionMismatch = 4,  ///< envelope version != kProtocolVersion
  BadChecksum = 5,      ///< body does not hash to the envelope checksum
  BadType = 6,          ///< unknown message type
  BadBody = 7,          ///< body failed to decode as its type's schema
  ServerError = 8,      ///< job raised an error server-side
  Busy = 9,             ///< admission control rejected the job
};

const char* proto_status_name(ProtoStatus status);

/// Malformed frame or envelope.  A SerializeError subclass so generic
/// codec handling (tests, retry classification) treats it uniformly,
/// with the ProtoStatus preserved for structured error responses.
class ProtocolError : public SerializeError {
 public:
  ProtocolError(ProtoStatus status, const std::string& what)
      : SerializeError(what), status_(status) {}
  ProtoStatus status() const { return status_; }

 private:
  ProtoStatus status_;
};

/// Message kinds.  Requests are < 64, responses >= 64; the gap leaves
/// room for either side to grow without renumbering.
enum class MsgType : std::uint8_t {
  AnalyzeRequest = 1,
  OptimizeRequest = 2,
  MetricsRequest = 3,
  ShutdownRequest = 4,
  PingRequest = 5,
  SstaRequest = 6,
  HealthRequest = 7,
  BatchRequest = 8,

  ResultResponse = 64,
  BusyResponse = 65,
  ErrorResponse = 66,
  CancelledResponse = 67,
  MetricsResponse = 68,
  ShutdownAck = 69,
  PongResponse = 70,
  HealthResponse = 71,
  BatchResponse = 72,
};

const char* msg_type_name(MsgType type);

/// One decoded frame: the type tag plus the raw body bytes (decoded
/// further by the per-type codecs below).
struct Frame {
  MsgType type = MsgType::PingRequest;
  std::string body;
};

/// Full wire bytes of a frame: magic + length + versioned envelope.
std::string encode_frame(const Frame& frame);

/// Decode the payload that followed a [magic][len] header (the socket
/// layer strips the header).  Throws ProtocolError on a malformed
/// envelope, a checksum mismatch, a version mismatch, or an unknown type.
Frame decode_frame_payload(std::string_view payload);

// --- request bodies ---------------------------------------------------

/// Analyze/optimize requests carry the job spec plus a per-job deadline
/// (0 = none).  The deadline is armed server-side at admission, so queue
/// wait counts against it.
struct AnalyzeRequest {
  AnalyzeJobSpec spec;
  std::uint64_t deadline_ms = 0;
};

struct OptimizeRequest {
  OptimizeJobSpec spec;
  std::uint64_t deadline_ms = 0;
};

struct SstaRequest {
  SstaJobSpec spec;
  std::uint64_t deadline_ms = 0;
};

std::string encode_analyze_request(const AnalyzeRequest& req);
AnalyzeRequest decode_analyze_request(std::string_view body);

std::string encode_optimize_request(const OptimizeRequest& req);
OptimizeRequest decode_optimize_request(std::string_view body);

std::string encode_ssta_request(const SstaRequest& req);
SstaRequest decode_ssta_request(std::string_view body);

// --- batch frames ------------------------------------------------------

/// Ceiling on specs per batch: bounds the admission loop and the
/// response buffer a single frame can demand.
inline constexpr std::uint64_t kMaxBatchItems = 1024;

/// One slot of a BatchRequest: a job-request kind (MsgType as u8) plus
/// that kind's encoded request body, carried opaquely.  The envelope
/// codec deliberately does NOT decode the inner body: the server decodes
/// each slot independently, so a malformed spec poisons only its own
/// slot instead of the whole batch.
struct BatchItem {
  std::uint8_t kind = 0;
  std::string body;
};

struct BatchRequest {
  std::vector<BatchItem> items;
};

std::string encode_batch_request(const BatchRequest& req);
/// Splits the envelope only (count, per-slot kind + raw bytes).  Throws
/// ProtocolError{BadBody} on an empty batch, an implausible or oversized
/// count, or truncated slot framing.
BatchRequest decode_batch_request(std::string_view body);

/// One slot of a BatchResponse: the exact {type, body} of the frame a
/// single-spec connection would have received for that slot's request --
/// this is what makes batch results byte-identical to N separate
/// connections by construction.
struct BatchSlot {
  MsgType type = MsgType::ErrorResponse;
  std::string body;
};

struct BatchResponse {
  std::vector<BatchSlot> slots;  ///< in submission order
};

std::string encode_batch_response(const BatchResponse& resp);
/// Throws ProtocolError{BadBody} when a slot's type is not a per-job
/// response kind (Result/Busy/Error/Cancelled) or the framing is short.
BatchResponse decode_batch_response(std::string_view body);

// --- canonical spec identity ------------------------------------------

/// Canonical content bytes of a job spec: a message-type tag followed by
/// exactly the fields that shape the result -- no deadline, no local-only
/// checkpoint paths.  Two requests with equal canonical bytes are the
/// same job, whatever their deadlines; the FNV hash over them drives
/// both the deterministic job->lane binding and the result-cache key.
std::string canonical_spec_bytes(const AnalyzeJobSpec& spec);
std::string canonical_spec_bytes(const OptimizeJobSpec& spec);
std::string canonical_spec_bytes(const SstaJobSpec& spec);

/// fnv1a64_words over canonical_spec_bytes(spec).
std::uint64_t job_spec_hash(const AnalyzeJobSpec& spec);
std::uint64_t job_spec_hash(const OptimizeJobSpec& spec);
std::uint64_t job_spec_hash(const SstaJobSpec& spec);

// --- response bodies --------------------------------------------------

/// A finished job: the exact stdout text and artifact bytes the direct
/// CLI run would have produced, plus its exit code.
std::string encode_result_response(const JobResult& result);
JobResult decode_result_response(std::string_view body);

/// Admission control rejection: the queue was full.  retry_after_ms is
/// the server's earliest-useful-retry estimate (queued backlog times the
/// recent mean job time; 0 = no estimate), monotone in queue depth.
struct BusyResponse {
  std::uint64_t queue_depth = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t retry_after_ms = 0;
};
std::string encode_busy_response(const BusyResponse& busy);
BusyResponse decode_busy_response(std::string_view body);

/// Structured failure: a protocol fault or a server-side job error.
struct ErrorResponse {
  ProtoStatus code = ProtoStatus::ServerError;
  std::string message;
};
std::string encode_error_response(const ErrorResponse& err);
ErrorResponse decode_error_response(std::string_view body);

/// The job was cancelled (deadline, client disconnect, or server
/// shutdown); `output` is the same wind-down text a direct run prints.
struct CancelledResponse {
  std::uint8_t reason = 0;  ///< CancelReason as u8
  std::string output;
};
std::string encode_cancelled_response(const CancelledResponse& c);
CancelledResponse decode_cancelled_response(std::string_view body);

/// Server-wide metrics snapshot, both human-rendered and JSON.
struct MetricsResponse {
  std::string rendered;
  std::string json;
};
std::string encode_metrics_response(const MetricsResponse& m);
MetricsResponse decode_metrics_response(std::string_view body);

/// Liveness snapshot for `sva ping`: answered inline (never queued), so
/// a response proves the accept loop and the protocol path are healthy
/// even while every lane is busy.
struct HealthResponse {
  std::uint64_t uptime_ms = 0;
  std::uint64_t queue_depth = 0;     ///< jobs currently queued (all lanes)
  std::uint64_t queue_capacity = 0;  ///< admission bound
  std::uint64_t jobs_served = 0;     ///< results delivered since start
  std::uint64_t lanes_poisoned = 0;  ///< lane recycles since start
  /// One LaneState byte per lane (0 idle, 1 running, 2 wedged).
  std::string lane_states;
};
std::string encode_health_response(const HealthResponse& h);
HealthResponse decode_health_response(std::string_view body);

}  // namespace sva
