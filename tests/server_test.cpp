// Timing-server tests: frame-codec golden bytes and malformed-input
// rejection, JobQueue admission control, and live-daemon integration --
// concurrent clients bit-identical to direct runs, per-job deadlines
// cancelling only their own client, failpoint robustness (a faulted or
// malformed client frame never kills the daemon), and graceful shutdown.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "server/client.hpp"
#include "server/job_queue.hpp"
#include "server/jobs.hpp"
#include "server/lane_pool.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "util/cancel.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

/// Flow construction runs library OPC; share one instance across tests.
const SvaFlow& shared_flow() {
  static const SvaFlow* flow = new SvaFlow(FlowConfig{});
  return *flow;
}

/// Drop the one nondeterministic line of an analyze run -- the
/// "(N circuits, T threads, X s)" wall-time trailer -- exactly as
/// scripts/check.sh does before comparing outputs.
std::string strip_variance(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("circuits, ") != std::string::npos &&
        line.size() >= 2 && line.compare(line.size() - 2, 2, "s)") == 0)
      continue;
    out += line;
    out += '\n';
  }
  return out;
}

ProtoStatus decode_status(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const ProtocolError& e) {
    return e.status();
  } catch (...) {
    return ProtoStatus::Ok;
  }
}

/// Decode and return the ProtoStatus a malformed payload is rejected
/// with; Ok means it unexpectedly decoded (or threw the wrong type).
ProtoStatus reject_status(std::string_view payload) {
  try {
    decode_frame_payload(payload);
    return ProtoStatus::Ok;
  } catch (...) {
    return decode_status(std::current_exception());
  }
}

// --- frame codec ------------------------------------------------------

TEST(ProtocolCodecTest, GoldenPingFrameBytes) {
  // The full wire bytes of an empty-body ping, fixed by the protocol:
  // magic "SVAF", payload length 21, version 4, type 5, fnv1a64 of the
  // empty body, and a zero-length body.  Platform-stable because the
  // codec is fixed little-endian.
  static const unsigned char kGolden[] = {
      0x53, 0x56, 0x41, 0x46, 0x15, 0x00, 0x00, 0x00,  // "SVAF", len=21
      0x04, 0x00, 0x00, 0x00,                          // version 4
      0x05,                                            // PingRequest
      0xdf, 0xb7, 0x01, 0x86, 0x4c, 0xbd, 0x63, 0xaf,  // fnv1a64("")
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // body len 0
  };
  const std::string wire = encode_frame({MsgType::PingRequest, ""});
  ASSERT_EQ(wire.size(), sizeof(kGolden));
  EXPECT_EQ(wire, std::string(reinterpret_cast<const char*>(kGolden),
                              sizeof(kGolden)));

  const Frame decoded = decode_frame_payload(wire.substr(8));
  EXPECT_EQ(decoded.type, MsgType::PingRequest);
  EXPECT_TRUE(decoded.body.empty());
}

TEST(ProtocolCodecTest, GoldenAnalyzeFrameBytes) {
  AnalyzeRequest req;
  req.spec.circuits = {"C17"};
  static const unsigned char kGolden[] = {
      0x53, 0x56, 0x41, 0x46, 0x31, 0x00, 0x00, 0x00,  // "SVAF", len=49
      0x04, 0x00, 0x00, 0x00,                          // version 4
      0x01,                                            // AnalyzeRequest
      0x56, 0x14, 0x4f, 0x19, 0xe8, 0x03, 0x7d, 0x31,  // body checksum
      0x1c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // body len 28
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 1 circuit
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // name len 3
      0x43, 0x31, 0x37,                                 // "C17"
      0x00,                                             // strict=false
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // deadline_ms=0
  };
  const std::string wire =
      encode_frame({MsgType::AnalyzeRequest, encode_analyze_request(req)});
  ASSERT_EQ(wire.size(), sizeof(kGolden));
  EXPECT_EQ(wire, std::string(reinterpret_cast<const char*>(kGolden),
                              sizeof(kGolden)));

  const Frame decoded = decode_frame_payload(wire.substr(8));
  const AnalyzeRequest back = decode_analyze_request(decoded.body);
  ASSERT_EQ(back.spec.circuits.size(), 1u);
  EXPECT_EQ(back.spec.circuits[0], "C17");
  EXPECT_FALSE(back.spec.strict);
  EXPECT_EQ(back.deadline_ms, 0u);
}

TEST(ProtocolCodecTest, RequestBodiesRoundTrip) {
  AnalyzeRequest a;
  a.spec.circuits = {"C432", "C6288"};
  a.spec.strict = true;
  a.deadline_ms = 2500;
  const AnalyzeRequest a2 = decode_analyze_request(encode_analyze_request(a));
  EXPECT_EQ(a2.spec.circuits, a.spec.circuits);
  EXPECT_EQ(a2.spec.strict, a.spec.strict);
  EXPECT_EQ(a2.deadline_ms, a.deadline_ms);

  OptimizeRequest o;
  o.spec.circuit = "C1355";
  o.spec.clock_period_ps = 812.5;
  o.spec.max_moves = 42;
  o.spec.window_ps = 37.25;
  o.spec.corner_mode = 1;
  o.spec.csv_path = "out/traj.csv";
  o.deadline_ms = 99;
  const OptimizeRequest o2 =
      decode_optimize_request(encode_optimize_request(o));
  EXPECT_EQ(o2.spec.circuit, o.spec.circuit);
  EXPECT_EQ(o2.spec.clock_period_ps, o.spec.clock_period_ps);
  EXPECT_EQ(o2.spec.max_moves, o.spec.max_moves);
  EXPECT_EQ(o2.spec.window_ps, o.spec.window_ps);
  EXPECT_EQ(o2.spec.corner_mode, o.spec.corner_mode);
  EXPECT_EQ(o2.spec.csv_path, o.spec.csv_path);
  EXPECT_EQ(o2.deadline_ms, o.deadline_ms);

  SstaRequest s;
  s.spec.circuit = "C880";
  s.spec.clock_period_ps = 3100.0;
  s.spec.quantile = 0.9987;
  s.spec.mc_samples = 500;
  s.spec.global_share = 0.25;
  s.spec.csv_path = "out/crit.csv";
  s.deadline_ms = 1200;
  const SstaRequest s2 = decode_ssta_request(encode_ssta_request(s));
  EXPECT_EQ(s2.spec.circuit, s.spec.circuit);
  EXPECT_EQ(s2.spec.clock_period_ps, s.spec.clock_period_ps);
  EXPECT_EQ(s2.spec.quantile, s.spec.quantile);
  EXPECT_EQ(s2.spec.mc_samples, s.spec.mc_samples);
  EXPECT_EQ(s2.spec.global_share, s.spec.global_share);
  EXPECT_EQ(s2.spec.csv_path, s.spec.csv_path);
  EXPECT_EQ(s2.deadline_ms, s.deadline_ms);
}

TEST(ProtocolCodecTest, SstaRequestRejectsOutOfRangeFields) {
  SstaRequest s;
  s.spec.circuit = "C432";
  s.spec.quantile = 1.25;
  EXPECT_THROW(decode_ssta_request(encode_ssta_request(s)), ProtocolError);
  s.spec.quantile = 0.999;
  s.spec.global_share = -0.5;
  EXPECT_THROW(decode_ssta_request(encode_ssta_request(s)), ProtocolError);
}

TEST(ProtocolCodecTest, ResponseBodiesRoundTrip) {
  JobResult result;
  result.exit_code = 3;
  result.output = "corner table\nwith lines\n";
  result.artifacts.push_back({"eco_trajectory.csv", "a,b\n1,2\n"});
  const JobResult r2 = decode_result_response(encode_result_response(result));
  EXPECT_EQ(r2.exit_code, result.exit_code);
  EXPECT_EQ(r2.output, result.output);
  ASSERT_EQ(r2.artifacts.size(), 1u);
  EXPECT_EQ(r2.artifacts[0].path, result.artifacts[0].path);
  EXPECT_EQ(r2.artifacts[0].bytes, result.artifacts[0].bytes);

  const BusyResponse busy =
      decode_busy_response(encode_busy_response({7, 8, 450}));
  EXPECT_EQ(busy.queue_depth, 7u);
  EXPECT_EQ(busy.max_depth, 8u);
  EXPECT_EQ(busy.retry_after_ms, 450u);

  HealthResponse health;
  health.uptime_ms = 12345;
  health.queue_depth = 2;
  health.queue_capacity = 8;
  health.jobs_served = 41;
  health.lanes_poisoned = 3;
  health.lane_states = {char(LaneState::Idle), char(LaneState::Running),
                        char(LaneState::Wedged)};
  const HealthResponse h2 =
      decode_health_response(encode_health_response(health));
  EXPECT_EQ(h2.uptime_ms, health.uptime_ms);
  EXPECT_EQ(h2.queue_depth, health.queue_depth);
  EXPECT_EQ(h2.queue_capacity, health.queue_capacity);
  EXPECT_EQ(h2.jobs_served, health.jobs_served);
  EXPECT_EQ(h2.lanes_poisoned, health.lanes_poisoned);
  EXPECT_EQ(h2.lane_states, health.lane_states);

  const ErrorResponse err = decode_error_response(
      encode_error_response({ProtoStatus::VersionMismatch, "nope"}));
  EXPECT_EQ(err.code, ProtoStatus::VersionMismatch);
  EXPECT_EQ(err.message, "nope");

  const CancelledResponse c = decode_cancelled_response(
      encode_cancelled_response({3, "run cancelled (deadline)\n"}));
  EXPECT_EQ(c.reason, 3);
  EXPECT_EQ(c.output, "run cancelled (deadline)\n");

  const MetricsResponse m = decode_metrics_response(
      encode_metrics_response({"  counter x\n", "{\"counters\":{}}"}));
  EXPECT_EQ(m.rendered, "  counter x\n");
  EXPECT_EQ(m.json, "{\"counters\":{}}");
}

TEST(ProtocolCodecTest, EveryTruncationOfAValidPayloadIsRejected) {
  AnalyzeRequest req;
  req.spec.circuits = {"C432"};
  const std::string wire =
      encode_frame({MsgType::AnalyzeRequest, encode_analyze_request(req)});
  const std::string payload = wire.substr(8);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    const ProtoStatus status = reject_status(payload.substr(0, n));
    EXPECT_EQ(status, ProtoStatus::Truncated) << "prefix length " << n;
  }
}

TEST(ProtocolCodecTest, VersionMismatchIsRefusedExplicitly) {
  ByteWriter payload;
  payload.u32(kProtocolVersion + 1);
  payload.u8(static_cast<std::uint8_t>(MsgType::PingRequest));
  payload.u64(fnv1a64_words("", 0));
  payload.str("");
  EXPECT_EQ(reject_status(payload.bytes()), ProtoStatus::VersionMismatch);
}

TEST(ProtocolCodecTest, UnknownTypeIsRejected) {
  ByteWriter payload;
  payload.u32(kProtocolVersion);
  payload.u8(200);  // neither request nor response
  payload.u64(fnv1a64_words("", 0));
  payload.str("");
  EXPECT_EQ(reject_status(payload.bytes()), ProtoStatus::BadType);
}

TEST(ProtocolCodecTest, CorruptBodyFailsTheChecksum) {
  AnalyzeRequest req;
  req.spec.circuits = {"C432"};
  const std::string wire =
      encode_frame({MsgType::AnalyzeRequest, encode_analyze_request(req)});
  std::string payload = wire.substr(8);
  payload.back() ^= 0x01;  // inside the body (deadline field)
  EXPECT_EQ(reject_status(payload), ProtoStatus::BadChecksum);
}

TEST(ProtocolCodecTest, GarbageBodyIsRejectedAsBadBody) {
  // A huge circuit count that cannot fit in the remaining bytes.
  ByteWriter body;
  body.u64(~0ull);
  try {
    decode_analyze_request(body.bytes());
    FAIL() << "garbage body decoded";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::BadBody);
  }
  // A truncated body maps to BadBody too (the envelope was intact).
  const std::string valid = encode_analyze_request(AnalyzeRequest{});
  try {
    decode_analyze_request(std::string_view(valid).substr(0, 3));
    FAIL() << "truncated body decoded";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::BadBody);
  }
}

TEST(ProtocolCodecTest, OversizedFrameIsRefusedAtEncode) {
  Frame frame{MsgType::ResultResponse,
              std::string(kMaxFramePayload, 'x')};
  try {
    encode_frame(frame);
    FAIL() << "oversized frame encoded";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::Oversized);
  }
}

// --- batch frames -----------------------------------------------------

TEST(ProtocolCodecTest, BatchBodiesRoundTrip) {
  AnalyzeRequest a;
  a.spec.circuits = {"C432"};
  SstaRequest s;
  s.spec.circuit = "C880";
  BatchRequest req;
  req.items.push_back({static_cast<std::uint8_t>(MsgType::AnalyzeRequest),
                       encode_analyze_request(a)});
  req.items.push_back({static_cast<std::uint8_t>(MsgType::SstaRequest),
                       encode_ssta_request(s)});
  const BatchRequest back = decode_batch_request(encode_batch_request(req));
  ASSERT_EQ(back.items.size(), 2u);
  EXPECT_EQ(back.items[0].kind, req.items[0].kind);
  EXPECT_EQ(back.items[0].body, req.items[0].body);
  EXPECT_EQ(back.items[1].kind, req.items[1].kind);
  EXPECT_EQ(back.items[1].body, req.items[1].body);

  JobResult result;
  result.output = "table\n";
  BatchResponse resp;
  resp.slots.push_back({MsgType::ResultResponse,
                        encode_result_response(result)});
  resp.slots.push_back({MsgType::ErrorResponse,
                        encode_error_response({ProtoStatus::BadBody, "bad"})});
  resp.slots.push_back({MsgType::BusyResponse,
                        encode_busy_response({1, 8, 50})});
  const BatchResponse rback =
      decode_batch_response(encode_batch_response(resp));
  ASSERT_EQ(rback.slots.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rback.slots[i].type, resp.slots[i].type);
    EXPECT_EQ(rback.slots[i].body, resp.slots[i].body);
  }
}

TEST(ProtocolCodecTest, BatchRequestRejectsMalformedEnvelopes) {
  // Empty batch.
  ByteWriter empty;
  empty.u64(0);
  try {
    decode_batch_request(empty.bytes());
    FAIL() << "empty batch decoded";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::BadBody);
  }
  // Item count over the protocol limit.
  ByteWriter oversized;
  oversized.u64(kMaxBatchItems + 1);
  try {
    decode_batch_request(oversized.bytes());
    FAIL() << "oversized batch decoded";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::BadBody);
  }
  // Plausible count with no item bytes behind it.
  ByteWriter hollow;
  hollow.u64(3);
  try {
    decode_batch_request(hollow.bytes());
    FAIL() << "hollow batch decoded";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::BadBody);
  }
  // A response-only type is refused as a batch slot on the way back.
  ByteWriter badslot;
  badslot.u64(1);
  badslot.u8(static_cast<std::uint8_t>(MsgType::AnalyzeRequest));
  badslot.str("");
  try {
    decode_batch_response(badslot.bytes());
    FAIL() << "request-typed slot decoded";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::BadBody);
  }
}

TEST(ProtocolCodecTest, EveryTruncationOfABatchFrameIsRejected) {
  // The v4 envelope defends the batch payload exactly like any other
  // frame: every proper prefix is Truncated, a flipped body byte is
  // BadChecksum -- never a partial decode.
  AnalyzeRequest a;
  a.spec.circuits = {"C17"};
  BatchRequest req;
  req.items.push_back({static_cast<std::uint8_t>(MsgType::AnalyzeRequest),
                       encode_analyze_request(a)});
  const std::string wire =
      encode_frame({MsgType::BatchRequest, encode_batch_request(req)});
  const std::string payload = wire.substr(8);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_EQ(reject_status(payload.substr(0, n)), ProtoStatus::Truncated)
        << "prefix length " << n;
  }
  std::string corrupt = payload;
  corrupt.back() ^= 0x01;
  EXPECT_EQ(reject_status(corrupt), ProtoStatus::BadChecksum);
}

// --- endpoint URIs ----------------------------------------------------

TEST(EndpointTest, ParsesUnixTcpAndBareForms) {
  Endpoint ep = parse_endpoint("unix:/tmp/sva.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(ep.path, "/tmp/sva.sock");

  ep = parse_endpoint("/tmp/bare.sock");  // back-compat shorthand
  EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(ep.path, "/tmp/bare.sock");

  ep = parse_endpoint("tcp:127.0.0.1:9321");
  EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 9321);

  EXPECT_THROW(parse_endpoint(""), SocketError);
  EXPECT_THROW(parse_endpoint("unix:"), SocketError);
  EXPECT_THROW(parse_endpoint("tcp:127.0.0.1"), SocketError);
  EXPECT_THROW(parse_endpoint("tcp::9000"), SocketError);
  EXPECT_THROW(parse_endpoint("tcp:host:"), SocketError);
  EXPECT_THROW(parse_endpoint("tcp:host:99999"), SocketError);
  EXPECT_THROW(parse_endpoint("tcp:host:12x"), SocketError);
}

// --- socket framing ---------------------------------------------------

struct SocketPair {
  Fd a, b;
  SocketPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw SocketError("socketpair failed");
    a = Fd(fds[0]);
    b = Fd(fds[1]);
  }
};

TEST(SocketFramingTest, FrameRoundTripsOverASocket) {
  SocketPair pair;
  const Frame sent{MsgType::ErrorResponse,
                   encode_error_response({ProtoStatus::Busy, "full"})};
  write_frame(pair.a.get(), sent);
  std::optional<Frame> got = read_frame(pair.b.get());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, sent.type);
  EXPECT_EQ(got->body, sent.body);
}

TEST(SocketFramingTest, BadMagicIsRejected) {
  SocketPair pair;
  const char garbage[16] = "GET / HTTP/1.1\r";
  write_all(pair.a.get(), garbage, sizeof(garbage));
  try {
    read_frame(pair.b.get());
    FAIL() << "garbage stream framed";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::BadMagic);
  }
}

TEST(SocketFramingTest, OversizedHeaderIsRejectedBeforeAllocation) {
  SocketPair pair;
  ByteWriter header;
  header.u32(kFrameMagic);
  header.u32(0xffffffffu);  // 4 GiB payload claim
  write_all(pair.a.get(), header.bytes().data(), header.bytes().size());
  try {
    read_frame(pair.b.get());
    FAIL() << "oversized header framed";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::Oversized);
  }
}

TEST(SocketFramingTest, CleanEofIsAValueNotAnError) {
  SocketPair pair;
  pair.a.close_now();
  EXPECT_FALSE(read_frame(pair.b.get()).has_value());
}

TEST(SocketFramingTest, MidFrameEofIsRejectedAsTruncated) {
  SocketPair pair;
  ByteWriter header;
  header.u32(kFrameMagic);
  header.u32(100);  // promises 100 payload bytes, delivers none
  write_all(pair.a.get(), header.bytes().data(), header.bytes().size());
  pair.a.close_now();
  try {
    read_frame(pair.b.get());
    FAIL() << "mid-frame EOF framed";
  } catch (...) {
    EXPECT_EQ(decode_status(std::current_exception()), ProtoStatus::Truncated);
  }
}

// --- job queue --------------------------------------------------------

std::shared_ptr<ServerJob> make_job(std::uint64_t id) {
  auto job = std::make_shared<ServerJob>();
  job->id = id;
  job->cancel = std::make_shared<CancelToken>();
  job->work = [] { return JobResult{}; };
  return job;
}

TEST(JobQueueTest, AdmissionControlRejectsBeyondMaxDepth) {
  JobQueue queue(2);
  EXPECT_TRUE(queue.try_push(make_job(1)));
  EXPECT_TRUE(queue.try_push(make_job(2)));
  EXPECT_FALSE(queue.try_push(make_job(3)));  // full: reject, never block
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.peak_depth(), 2u);

  std::shared_ptr<ServerJob> first = queue.pop();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 1u);  // admission order
  EXPECT_TRUE(queue.try_push(make_job(4)));  // slot freed
}

TEST(JobQueueTest, CloseStopsAdmissionsButDrainsTheBacklog) {
  JobQueue queue(4);
  EXPECT_TRUE(queue.try_push(make_job(1)));
  EXPECT_TRUE(queue.try_push(make_job(2)));
  queue.close();
  EXPECT_FALSE(queue.try_push(make_job(3)));  // closed: no new admissions
  std::shared_ptr<ServerJob> a = queue.pop();
  std::shared_ptr<ServerJob> b = queue.pop();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->id, 1u);
  EXPECT_EQ(b->id, 2u);
  EXPECT_EQ(queue.pop(), nullptr);  // closed and drained
}

TEST(JobQueueTest, PopBlocksUntilAJobArrives) {
  JobQueue queue(2);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    std::shared_ptr<ServerJob> job = queue.pop();
    EXPECT_NE(job, nullptr);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  EXPECT_TRUE(queue.try_push(make_job(1)));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(JobQueueTest, CloseDrainRaceNeverDropsAnAdmittedJob) {
  // Pushers race a close(): every job is either refused at admission or
  // drained by the consumers -- admitted == popped, nothing vanishes.
  // Run under TSan via scripts/check.sh to validate the locking too.
  constexpr int kPushers = 4;
  constexpr int kJobsPerPusher = 200;
  JobQueue queue(kPushers * kJobsPerPusher);
  std::atomic<std::uint64_t> admitted{0}, refused{0}, popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (queue.pop() != nullptr) popped.fetch_add(1);
    });
  }
  std::vector<std::thread> pushers;
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&, p] {
      for (int j = 0; j < kJobsPerPusher; ++j) {
        if (queue.try_push(make_job(std::uint64_t(p) * kJobsPerPusher + j)))
          admitted.fetch_add(1);
        else
          refused.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.close();
  for (std::thread& t : pushers) t.join();
  for (std::thread& t : consumers) t.join();

  EXPECT_EQ(admitted.load() + refused.load(),
            std::uint64_t(kPushers) * kJobsPerPusher);
  EXPECT_EQ(popped.load(), admitted.load())
      << "admitted jobs must be drained, not dropped";
}

// --- live daemon ------------------------------------------------------

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/sva_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// One in-process daemon on a fresh socket.  The flow is the shared
/// static instance; serve() runs on a background thread until stop().
struct ServerHarness {
  std::string socket_path = unique_socket_path();
  // Declared before `server`: adopt_config() assigns it while the server
  // member is being initialized.
  bool want_tcp = false;
  ThreadPool pool{2};
  TimingServer server;
  std::thread thread;
  int exit_code = -1;

  static ServerConfig make_config(const std::string& path,
                                  std::size_t queue_depth, std::size_t lanes,
                                  std::size_t result_cache,
                                  std::uint64_t stall_ms,
                                  std::uint64_t grace_ms) {
    ServerConfig cfg;
    cfg.socket_path = path;
    cfg.queue_depth = queue_depth;
    cfg.lanes = lanes;
    cfg.result_cache_capacity = result_cache;
    cfg.watchdog_stall_ms = stall_ms;
    cfg.watchdog_grace_ms = grace_ms;
    return cfg;
  }

  explicit ServerHarness(std::size_t queue_depth = 8, std::size_t lanes = 0,
                         std::size_t result_cache = 0,
                         std::uint64_t stall_ms = 10'000,
                         std::uint64_t grace_ms = 2'000)
      : server(shared_flow(),
               make_config(socket_path, queue_depth, lanes, result_cache,
                           stall_ms, grace_ms)) {
    thread = std::thread([this] { exit_code = server.serve(pool); });
    wait_until_listening();
  }

  /// Full-config harness for the transport-hardening tests.  An empty
  /// socket_path with a listen_address runs TCP-only; otherwise the
  /// harness's fresh Unix path is filled in.
  explicit ServerHarness(ServerConfig cfg)
      : server(shared_flow(), adopt_config(cfg)) {
    thread = std::thread([this] { exit_code = server.serve(pool); });
    wait_until_listening();
  }

  ~ServerHarness() { stop(); }

  /// The tcp:HOST:PORT endpoint of the daemon's TCP listener.
  std::string tcp_endpoint() const {
    return "tcp:127.0.0.1:" + std::to_string(server.tcp_port());
  }

  void stop() {
    if (!thread.joinable()) return;
    server.request_stop();
    thread.join();
  }

  void wait_until_listening() {
    for (int i = 0; i < 500; ++i) {
      if (want_tcp && server.tcp_port() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      if (socket_path.empty()) return;  // TCP-only, and the port is bound
      try {
        Fd probe = unix_connect(socket_path);
        return;
      } catch (const SocketError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    FAIL() << "daemon never started listening";
  }

 private:
  ServerConfig adopt_config(ServerConfig cfg) {
    if (cfg.socket_path.empty() && cfg.listen_address.empty())
      cfg.socket_path = socket_path;
    socket_path = cfg.socket_path;  // may be empty for TCP-only daemons
    want_tcp = !cfg.listen_address.empty();
    return cfg;
  }
};

TEST(TimingServerTest, PingAndMetricsAnswerInline) {
  ServerHarness harness;
  ServerClient client(harness.socket_path);
  const Frame pong = client.call({MsgType::PingRequest, ""});
  EXPECT_EQ(pong.type, MsgType::PongResponse);

  const MetricsResponse metrics = fetch_remote_metrics(harness.socket_path);
  EXPECT_NE(metrics.json.find("server.connections"), std::string::npos);
  EXPECT_NE(metrics.json.find("\"counters\""), std::string::npos);
}

TEST(TimingServerTest, ThreeConcurrentClientsMatchTheDirectRunBitForBit) {
  const SvaFlow& flow = shared_flow();
  AnalyzeJobSpec spec;
  spec.circuits = {"C432"};
  ThreadPool direct_pool(2);
  const JobResult direct = run_analyze_job(flow, direct_pool, spec, nullptr);
  ASSERT_EQ(direct.exit_code, 0);
  ASSERT_TRUE(direct.error.empty());

  ServerHarness harness;
  constexpr int kClients = 3;
  std::vector<JobResult> remote(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        ServerClient client(harness.socket_path);
        AnalyzeRequest req;
        req.spec = spec;
        const Frame response = client.call(
            {MsgType::AnalyzeRequest, encode_analyze_request(req)});
        if (response.type != MsgType::ResultResponse) {
          failures[i] = std::string("unexpected response ") +
                        msg_type_name(response.type);
          return;
        }
        remote[i] = decode_result_response(response.body);
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(failures[i].empty()) << "client " << i << ": " << failures[i];
    EXPECT_EQ(remote[i].exit_code, 0) << "client " << i;
    // Bit-identical modulo the wall-time trailer, which varies between
    // *any* two runs (scripts/check.sh strips the same line).
    EXPECT_EQ(strip_variance(remote[i].output), strip_variance(direct.output))
        << "client " << i;
    EXPECT_TRUE(remote[i].artifacts.empty()) << "client " << i;
  }
}

TEST(TimingServerTest, SstaJobMatchesTheDirectRunBitForBit) {
  const SvaFlow& flow = shared_flow();
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.clock_period_ps = 2500.0;
  spec.mc_samples = 200;
  ThreadPool direct_pool(2);
  const JobResult direct = run_ssta_job(flow, direct_pool, spec, nullptr);
  ASSERT_EQ(direct.exit_code, 0);
  ASSERT_TRUE(direct.error.empty());

  ServerHarness harness;
  ServerClient client(harness.socket_path);
  SstaRequest req;
  req.spec = spec;
  const Frame response =
      client.call({MsgType::SstaRequest, encode_ssta_request(req)});
  ASSERT_EQ(response.type, MsgType::ResultResponse);
  const JobResult remote = decode_result_response(response.body);
  EXPECT_EQ(remote.exit_code, 0);
  // SSTA output carries no wall-time trailer: the remote bytes must be
  // identical, artifacts included (the criticality CSV).
  EXPECT_EQ(remote.output, direct.output);
  ASSERT_EQ(remote.artifacts.size(), direct.artifacts.size());
  ASSERT_EQ(remote.artifacts.size(), 1u);
  EXPECT_EQ(remote.artifacts[0].path, direct.artifacts[0].path);
  EXPECT_EQ(remote.artifacts[0].bytes, direct.artifacts[0].bytes);
}

TEST(TimingServerTest, PerJobDeadlineCancelsOnlyThatClient) {
  ServerHarness harness;

  std::string doomed_failure, healthy_failure;
  Frame doomed_response, healthy_response;
  std::thread doomed([&] {
    try {
      ServerClient client(harness.socket_path);
      AnalyzeRequest req;
      req.spec.circuits = {"C6288"};
      req.deadline_ms = 1;  // expires in the queue: cancelled at first poll
      doomed_response = client.call(
          {MsgType::AnalyzeRequest, encode_analyze_request(req)});
    } catch (const std::exception& e) {
      doomed_failure = e.what();
    }
  });
  std::thread healthy([&] {
    try {
      ServerClient client(harness.socket_path);
      AnalyzeRequest req;
      req.spec.circuits = {"C432"};
      healthy_response = client.call(
          {MsgType::AnalyzeRequest, encode_analyze_request(req)});
    } catch (const std::exception& e) {
      healthy_failure = e.what();
    }
  });
  doomed.join();
  healthy.join();

  ASSERT_TRUE(doomed_failure.empty()) << doomed_failure;
  ASSERT_EQ(doomed_response.type, MsgType::CancelledResponse);
  const CancelledResponse cancelled =
      decode_cancelled_response(doomed_response.body);
  EXPECT_EQ(cancelled.reason,
            static_cast<std::uint8_t>(CancelReason::Deadline));
  EXPECT_NE(cancelled.output.find("run cancelled (deadline)"),
            std::string::npos);

  ASSERT_TRUE(healthy_failure.empty()) << healthy_failure;
  ASSERT_EQ(healthy_response.type, MsgType::ResultResponse);
  EXPECT_EQ(decode_result_response(healthy_response.body).exit_code, 0);
}

TEST(TimingServerTest, MalformedFrameGetsAStructuredErrorAndTheDaemonLives) {
  ServerHarness harness;
  const std::uint64_t bad_before =
      MetricsRegistry::global().counter("server.bad_frames").value();

  // Exactly one header's worth of garbage: the server consumes all 8
  // bytes before rejecting, so its close is a clean FIN and the error
  // response is readable (trailing unread bytes would turn it into a
  // reset).
  Fd raw = unix_connect(harness.socket_path);
  const char garbage[8] = {'h', 'i', ' ', 't', 'h', 'e', 'r', 'e'};
  write_all(raw.get(), garbage, sizeof(garbage));
  std::optional<Frame> response = read_frame(raw.get());
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MsgType::ErrorResponse);
  EXPECT_EQ(decode_error_response(response->body).code,
            ProtoStatus::BadMagic);
  // The server drops the poisoned connection after answering.
  EXPECT_FALSE(read_frame(raw.get()).has_value());
  EXPECT_GT(MetricsRegistry::global().counter("server.bad_frames").value(),
            bad_before);

  // ...and the next client is served normally.
  ServerClient next(harness.socket_path);
  EXPECT_EQ(next.call({MsgType::PingRequest, ""}).type,
            MsgType::PongResponse);
}

TEST(TimingServerTest, OldProtocolVersionIsRefusedWithAClearError) {
  ServerHarness harness;
  ByteWriter payload;
  payload.u32(kProtocolVersion + 7);
  payload.u8(static_cast<std::uint8_t>(MsgType::PingRequest));
  payload.u64(fnv1a64_words("", 0));
  payload.str("");
  ByteWriter wire;
  wire.u32(kFrameMagic);
  wire.u32(static_cast<std::uint32_t>(payload.size()));
  const std::string bytes = wire.bytes() + payload.bytes();

  Fd raw = unix_connect(harness.socket_path);
  write_all(raw.get(), bytes.data(), bytes.size());
  std::optional<Frame> response = read_frame(raw.get());
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MsgType::ErrorResponse);
  const ErrorResponse err = decode_error_response(response->body);
  EXPECT_EQ(err.code, ProtoStatus::VersionMismatch);
  EXPECT_NE(err.message.find("version"), std::string::npos);
}

/// Disarm every failpoint on scope exit, pass or fail.
struct FailPointGuard {
  ~FailPointGuard() { FailPoints::clear_all(); }
};

TEST(TimingServerTest, ReadFaultDropsTheConnectionNotTheDaemon) {
  ServerHarness harness;
  FailPointGuard guard;
  const std::uint64_t faults_before =
      MetricsRegistry::global().counter("server.connection_faults").value();

  FailPoints::set("server.read", "throw");
  Fd raw = unix_connect(harness.socket_path);
  const std::string ping = encode_frame({MsgType::PingRequest, ""});
  write_all(raw.get(), ping.data(), ping.size());
  // The injected fault costs this connection: it is dropped without a
  // response -- as EOF or as a reset, depending on whether the kernel
  // still held our unread ping bytes at close time.
  try {
    EXPECT_FALSE(read_frame(raw.get()).has_value());
  } catch (const SocketError&) {
  }
  EXPECT_GT(FailPoints::fired_count("server.read"), 0u);
  EXPECT_GT(
      MetricsRegistry::global().counter("server.connection_faults").value(),
      faults_before);

  FailPoints::clear("server.read");
  ServerClient next(harness.socket_path);
  EXPECT_EQ(next.call({MsgType::PingRequest, ""}).type,
            MsgType::PongResponse);
}

TEST(TimingServerTest, AcceptFaultIsSurvivedAndThePendingClientIsServed) {
  ServerHarness harness;
  FailPointGuard guard;

  FailPoints::set("server.accept", "throw");
  // The connection parks in the listen backlog while accepts fault.
  Fd raw = unix_connect(harness.socket_path);
  const std::string ping = encode_frame({MsgType::PingRequest, ""});
  write_all(raw.get(), ping.data(), ping.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_GT(FailPoints::fired_count("server.accept"), 0u);

  // Once the fault clears the daemon accepts the parked connection and
  // answers the frame it already buffered.
  FailPoints::clear("server.accept");
  std::optional<Frame> response = read_frame(raw.get());
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, MsgType::PongResponse);
}

TEST(TimingServerTest, ClientDisconnectCancelsOnlyItsOwnJob) {
  ServerHarness harness;
  FailPointGuard guard;
  const std::uint64_t disconnects_before =
      MetricsRegistry::global().counter("server.client_disconnects").value();
  const std::uint64_t cancelled_before =
      MetricsRegistry::global().counter("server.jobs_cancelled").value();

  // Warm-cache analyzes finish inside the watcher's first 50 ms tick, so
  // hold the abandoned job open with an injected per-job delay -- long
  // enough that the disconnect must be noticed while it is in flight.
  FailPoints::set("batch.job", "delay(2000)");
  {
    // Submit a job and walk away: the watcher must notice the EOF and
    // trip that job's token (nobody is left to read the result).
    Fd deserter = unix_connect(harness.socket_path);
    AnalyzeRequest req;
    req.spec.circuits = {"C432"};
    const std::string wire =
        encode_frame({MsgType::AnalyzeRequest, encode_analyze_request(req)});
    write_all(deserter.get(), wire.data(), wire.size());
  }  // closes the socket with the job in flight

  // The watcher notices the EOF within a few poll ticks.
  for (int i = 0; i < 100; ++i) {
    if (MetricsRegistry::global()
            .counter("server.client_disconnects")
            .value() > disconnects_before)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GT(
      MetricsRegistry::global().counter("server.client_disconnects").value(),
      disconnects_before);
  FailPoints::clear("batch.job");

  // A well-behaved client is untouched while the abandoned job winds
  // down (its job queues behind the doomed one and still succeeds).
  ServerClient client(harness.socket_path);
  AnalyzeRequest req;
  req.spec.circuits = {"C432"};
  const Frame response =
      client.call({MsgType::AnalyzeRequest, encode_analyze_request(req)});
  ASSERT_EQ(response.type, MsgType::ResultResponse);
  EXPECT_EQ(decode_result_response(response.body).exit_code, 0);

  EXPECT_GT(MetricsRegistry::global().counter("server.jobs_cancelled").value(),
            cancelled_before);
}

TEST(TimingServerTest, FullQueueAnswersBusyInsteadOfBlocking) {
  // Depth 1: one job executing, one queued, the third must be rejected.
  // The injected per-job delay pins job A in the executor long enough
  // that B is still parked in the queue when C asks for admission.
  // Pinned to one lane: admission counts queued jobs only, so a second
  // lane would pop C499 instantly and free the slot.
  ServerHarness harness(1, /*lanes=*/1);
  FailPointGuard guard;
  FailPoints::set("batch.job", "delay(1500)");

  Fd slow_a = unix_connect(harness.socket_path);
  AnalyzeRequest slow_req;
  slow_req.spec.circuits = {"C432"};
  std::string wire =
      encode_frame({MsgType::AnalyzeRequest, encode_analyze_request(slow_req)});
  write_all(slow_a.get(), wire.data(), wire.size());
  // Give the executor time to pop A so the queue slot frees for B.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Fd slow_b = unix_connect(harness.socket_path);
  slow_req.spec.circuits = {"C499"};
  wire =
      encode_frame({MsgType::AnalyzeRequest, encode_analyze_request(slow_req)});
  write_all(slow_b.get(), wire.data(), wire.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  ServerClient rejected(harness.socket_path);
  AnalyzeRequest req;
  req.spec.circuits = {"C432"};
  const Frame response =
      rejected.call({MsgType::AnalyzeRequest, encode_analyze_request(req)});
  ASSERT_EQ(response.type, MsgType::BusyResponse);
  const BusyResponse busy = decode_busy_response(response.body);
  EXPECT_EQ(busy.max_depth, 1u);
  EXPECT_GT(busy.retry_after_ms, 0u);

  // Dropping the slow clients cancels their jobs so teardown is quick.
  slow_a.close_now();
  slow_b.close_now();
}

TEST(TimingServerTest, ShutdownRequestDrainsAndRemovesTheSocketFile) {
  ServerHarness harness;
  request_remote_shutdown(harness.socket_path);
  harness.thread.join();
  EXPECT_EQ(harness.exit_code, 0);
  struct stat st;
  EXPECT_NE(::stat(harness.socket_path.c_str(), &st), 0)
      << "socket file orphaned after a graceful drain";
}

// --- lane binding and result cache ------------------------------------

TEST(SpecHashTest, CanonicalBytesCoverTheResultShapingFieldsOnly) {
  AnalyzeJobSpec a;
  a.circuits = {"C432", "C880"};
  AnalyzeJobSpec b = a;
  EXPECT_EQ(job_spec_hash(a), job_spec_hash(b));

  // Checkpoint plumbing is local-only and never shapes the result: two
  // specs differing only there are the same job (and cache entry).
  b.resume_path = "foo.ckpt";
  b.checkpoint_path = "bar.ckpt";
  EXPECT_EQ(job_spec_hash(a), job_spec_hash(b));

  b = a;
  b.circuits = {"C880", "C432"};  // order shapes the output text
  EXPECT_NE(job_spec_hash(a), job_spec_hash(b));
  b = a;
  b.strict = true;
  EXPECT_NE(job_spec_hash(a), job_spec_hash(b));

  // The type tag keeps an analyze and an ssta of the "same" circuit from
  // colliding in the cache.
  SstaJobSpec s;
  s.circuit = "C432";
  AnalyzeJobSpec single;
  single.circuits = {"C432"};
  EXPECT_NE(job_spec_hash(single), job_spec_hash(s));

  OptimizeJobSpec o1, o2;
  o1.circuit = o2.circuit = "C17";
  o2.resume_path = "x.ckpt";  // local-only again
  EXPECT_EQ(job_spec_hash(o1), job_spec_hash(o2));
  o2.resume_path.clear();
  o2.max_moves = o1.max_moves + 1;
  EXPECT_NE(job_spec_hash(o1), job_spec_hash(o2));
}

TEST(RetryHintTest, BusyRetryHintIsMonotoneInQueueDepth) {
  std::uint64_t prev = 0;
  for (std::size_t depth = 0; depth < 64; ++depth) {
    const std::uint64_t hint = estimate_retry_after_ms(depth, 40.0);
    EXPECT_GE(hint, prev) << "depth " << depth;
    EXPECT_GT(hint, 0u);
    prev = hint;
  }
  // A mean below the floor still yields a usable hint, and the hint is
  // capped so a pathological mean cannot park clients for hours.
  EXPECT_GT(estimate_retry_after_ms(0, 0.0), 0u);
  EXPECT_LE(estimate_retry_after_ms(1u << 20, 1e9), 60'000u);
}

TEST(ResultCacheTest, BoundedLruEvictsTheLeastRecentlyUsed) {
  ResultCache cache(2);
  JobResult r1, r2, r3;
  r1.output = "one";
  r2.output = "two";
  r3.output = "three";
  cache.insert(1, r1);
  cache.insert(2, r2);
  ASSERT_TRUE(cache.lookup(1).has_value());  // refresh: 1 is now MRU
  cache.insert(3, r3);                       // evicts 2, the LRU
  EXPECT_FALSE(cache.lookup(2).has_value());
  std::optional<JobResult> hit1 = cache.lookup(1);
  std::optional<JobResult> hit3 = cache.lookup(3);
  ASSERT_TRUE(hit1.has_value());
  ASSERT_TRUE(hit3.has_value());
  EXPECT_EQ(hit1->output, "one");
  EXPECT_EQ(hit3->output, "three");
  EXPECT_EQ(cache.size(), 2u);

  ResultCache disabled(0);
  disabled.insert(7, r1);
  EXPECT_FALSE(disabled.lookup(7).has_value());
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(TimingServerTest, HealthProbeReportsLaneAndQueueState) {
  ServerHarness harness(8, /*lanes=*/3);
  const HealthResponse health = fetch_remote_health(harness.socket_path);
  EXPECT_EQ(health.queue_capacity, 8u);
  EXPECT_EQ(health.queue_depth, 0u);
  ASSERT_EQ(health.lane_states.size(), 3u);
  for (char state : health.lane_states)
    EXPECT_NE(static_cast<LaneState>(state), LaneState::Wedged);

  ServerClient client(harness.socket_path);
  AnalyzeRequest req;
  req.spec.circuits = {"C432"};
  ASSERT_EQ(client
                .call({MsgType::AnalyzeRequest, encode_analyze_request(req)})
                .type,
            MsgType::ResultResponse);
  const HealthResponse after = fetch_remote_health(harness.socket_path);
  EXPECT_GT(after.jobs_served, health.jobs_served);
}

TEST(TimingServerTest, MultiLaneOutputIsBitIdenticalToSingleLane) {
  const SvaFlow& flow = shared_flow();
  AnalyzeJobSpec analyze_spec;
  analyze_spec.circuits = {"C432", "C880"};
  SstaJobSpec ssta_spec;
  ssta_spec.circuit = "C432";
  ssta_spec.clock_period_ps = 2500.0;
  ssta_spec.mc_samples = 100;
  OptimizeRequest opt_req;
  opt_req.spec.circuit = "C432";
  opt_req.spec.max_moves = 4;

  ThreadPool direct_pool(2);
  const JobResult direct_analyze =
      run_analyze_job(flow, direct_pool, analyze_spec, nullptr);
  const JobResult direct_ssta =
      run_ssta_job(flow, direct_pool, ssta_spec, nullptr);
  ASSERT_EQ(direct_analyze.exit_code, 0);
  ASSERT_EQ(direct_ssta.exit_code, 0);

  // The same three jobs through a one-lane daemon (the old executor
  // semantics) and a four-lane daemon must produce the same bytes --
  // the deterministic lane binding argument, asserted.
  JobResult analyze_by_lanes[2], ssta_by_lanes[2], opt_by_lanes[2];
  const std::size_t lane_counts[2] = {1, 4};
  for (int v = 0; v < 2; ++v) {
    ServerHarness harness(8, lane_counts[v]);
    ServerClient client(harness.socket_path);
    AnalyzeRequest areq;
    areq.spec = analyze_spec;
    Frame resp =
        client.call({MsgType::AnalyzeRequest, encode_analyze_request(areq)});
    ASSERT_EQ(resp.type, MsgType::ResultResponse);
    analyze_by_lanes[v] = decode_result_response(resp.body);

    SstaRequest sreq;
    sreq.spec = ssta_spec;
    resp = client.call({MsgType::SstaRequest, encode_ssta_request(sreq)});
    ASSERT_EQ(resp.type, MsgType::ResultResponse);
    ssta_by_lanes[v] = decode_result_response(resp.body);

    resp = client.call(
        {MsgType::OptimizeRequest, encode_optimize_request(opt_req)});
    ASSERT_EQ(resp.type, MsgType::ResultResponse);
    opt_by_lanes[v] = decode_result_response(resp.body);
  }

  EXPECT_EQ(strip_variance(analyze_by_lanes[0].output),
            strip_variance(direct_analyze.output));
  EXPECT_EQ(strip_variance(analyze_by_lanes[1].output),
            strip_variance(analyze_by_lanes[0].output));

  for (int v = 0; v < 2; ++v) {
    EXPECT_EQ(ssta_by_lanes[v].output, direct_ssta.output) << "lanes config "
                                                           << v;
    ASSERT_EQ(ssta_by_lanes[v].artifacts.size(),
              direct_ssta.artifacts.size());
    for (std::size_t i = 0; i < direct_ssta.artifacts.size(); ++i)
      EXPECT_EQ(ssta_by_lanes[v].artifacts[i].bytes,
                direct_ssta.artifacts[i].bytes);
  }

  EXPECT_EQ(opt_by_lanes[1].exit_code, opt_by_lanes[0].exit_code);
  EXPECT_EQ(opt_by_lanes[1].output, opt_by_lanes[0].output);
  ASSERT_EQ(opt_by_lanes[1].artifacts.size(), opt_by_lanes[0].artifacts.size());
  for (std::size_t i = 0; i < opt_by_lanes[0].artifacts.size(); ++i)
    EXPECT_EQ(opt_by_lanes[1].artifacts[i].bytes,
              opt_by_lanes[0].artifacts[i].bytes);
}

TEST(TimingServerTest, CachedReplayIsByteIdenticalAndSkipsReExecution) {
  ServerHarness harness(8, /*lanes=*/2, /*result_cache=*/16);
  const std::uint64_t hits_before =
      MetricsRegistry::global().counter("server.result_cache.hits").value();

  AnalyzeRequest req;
  req.spec.circuits = {"C432"};

  ServerClient first(harness.socket_path);
  const Frame r1 = first.call({MsgType::AnalyzeRequest,
                               encode_analyze_request(req)});
  ASSERT_EQ(r1.type, MsgType::ResultResponse);
  ServerClient second(harness.socket_path);
  const Frame r2 = second.call({MsgType::AnalyzeRequest,
                                encode_analyze_request(req)});
  ASSERT_EQ(r2.type, MsgType::ResultResponse);

  // A cache hit replays the stored result verbatim: byte-identical
  // INCLUDING the wall-time trailer no two fresh runs ever agree on.
  EXPECT_EQ(r2.body, r1.body);
  EXPECT_GT(
      MetricsRegistry::global().counter("server.result_cache.hits").value(),
      hits_before);
}

// --- fault isolation ---------------------------------------------------

TEST(TimingServerTest, LaneCrashIsIsolatedAndTransparentlyRetried) {
  ServerHarness harness(8, /*lanes=*/2);
  FailPointGuard guard;
  const std::uint64_t poisoned_before =
      MetricsRegistry::global().counter("server.lane.poisoned").value();

  AnalyzeRequest req;
  req.spec.circuits = {"C432"};
  const Frame request{MsgType::AnalyzeRequest, encode_analyze_request(req)};

  // Phase 1, deterministic: every lane run crashes.  A retry-less client
  // sees the dropped connection as the transient failure it is.
  FailPoints::set("server.lane.run", "throw");
  EXPECT_THROW(call_server_with_retry(harness.socket_path, request, {}),
               TransientError);
  // The lane bumps the poison counter just after delivering the crash
  // result, so give it a few ticks to land.
  for (int i = 0; i < 100; ++i) {
    if (MetricsRegistry::global().counter("server.lane.poisoned").value() >
        poisoned_before)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(MetricsRegistry::global().counter("server.lane.poisoned").value(),
            poisoned_before);

  // The daemon survived the crash: the next request (faults cleared)
  // runs on a recycled lane and succeeds.
  FailPoints::clear("server.lane.run");
  ServerClient probe(harness.socket_path);
  ASSERT_EQ(probe.call(request).type, MsgType::ResultResponse);
  const JobResult clean = decode_result_response(probe.call(request).body);
  EXPECT_EQ(clean.exit_code, 0);

  // Phase 2, probabilistic chaos: lanes crash 30% of the time while
  // three clients hammer the daemon with retries.  Every client must
  // land the correct bytes.
  FailPoints::set("server.lane.run", "prob(0.3)");
  ClientRetryConfig retry;
  retry.retries = 25;
  retry.initial_backoff = std::chrono::milliseconds(5);
  retry.max_jitter = std::chrono::milliseconds(5);
  constexpr int kClients = 3;
  std::vector<std::string> failures(kClients);
  std::vector<JobResult> results(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        const Frame resp =
            call_server_with_retry(harness.socket_path, request, retry);
        if (resp.type != MsgType::ResultResponse) {
          failures[i] = std::string("unexpected response ") +
                        msg_type_name(resp.type);
          return;
        }
        results[i] = decode_result_response(resp.body);
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  FailPoints::clear("server.lane.run");

  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(failures[i].empty()) << "client " << i << ": " << failures[i];
    EXPECT_EQ(results[i].exit_code, 0) << "client " << i;
    EXPECT_EQ(strip_variance(results[i].output), strip_variance(clean.output))
        << "client " << i;
  }

  // ...and after all that abuse the daemon still drains cleanly.
  harness.stop();
  EXPECT_EQ(harness.exit_code, 0);
}

TEST(TimingServerTest, WatchdogWedgesAStuckLaneAndRecyclesIt) {
  // One lane, aggressive watchdog: a job that stops heartbeating for
  // 200 ms gets its token fired; 300 ms later the lane is declared
  // wedged, the client is answered, and a replacement thread takes over.
  ServerHarness harness(8, /*lanes=*/1, /*result_cache=*/0,
                        /*stall_ms=*/200, /*grace_ms=*/300);
  FailPointGuard guard;
  const std::uint64_t wedged_before =
      MetricsRegistry::global().counter("server.lane.wedged").value();

  // The injected delay sleeps inside the job body, far from any poll
  // point -- exactly the "stuck, not cancellable" shape the watchdog
  // exists for.
  FailPoints::set("batch.job", "delay(3000)");
  ServerClient stuck(harness.socket_path);
  AnalyzeRequest req;
  req.spec.circuits = {"C432"};
  const Frame request{MsgType::AnalyzeRequest, encode_analyze_request(req)};
  const Frame response = stuck.call(request);
  ASSERT_EQ(response.type, MsgType::CancelledResponse);
  const CancelledResponse cancelled =
      decode_cancelled_response(response.body);
  EXPECT_EQ(cancelled.reason,
            static_cast<std::uint8_t>(CancelReason::Watchdog));
  EXPECT_NE(cancelled.output.find("lane wedged"), std::string::npos);
  EXPECT_GT(MetricsRegistry::global().counter("server.lane.wedged").value(),
            wedged_before);

  // The same spec -- bound to the same (now recycled) lane -- succeeds
  // once the fault is gone, and other clients were never at risk.
  FailPoints::clear("batch.job");
  ServerClient next(harness.socket_path);
  const Frame ok = next.call(request);
  ASSERT_EQ(ok.type, MsgType::ResultResponse);
  EXPECT_EQ(decode_result_response(ok.body).exit_code, 0);
}

// --- TCP transport ----------------------------------------------------

TEST(TimingServerTest, TcpTransportIsByteIdenticalToUnixAndDirect) {
  const SvaFlow& flow = shared_flow();
  AnalyzeJobSpec spec;
  spec.circuits = {"C432"};
  ThreadPool direct_pool(2);
  const JobResult direct = run_analyze_job(flow, direct_pool, spec, nullptr);
  ASSERT_EQ(direct.exit_code, 0);

  ServerConfig cfg;
  cfg.socket_path = unique_socket_path();
  cfg.listen_address = "127.0.0.1:0";  // ephemeral port, discovered below
  ServerHarness harness(cfg);  // dual-listener: Unix socket + TCP
  ASSERT_NE(harness.server.tcp_port(), 0);

  const std::uint64_t accepted_before =
      MetricsRegistry::global().counter("server.conn.accepted").value();

  AnalyzeRequest req;
  req.spec = spec;
  const Frame request{MsgType::AnalyzeRequest, encode_analyze_request(req)};

  ServerClient over_tcp(harness.tcp_endpoint());
  const Frame tcp_resp = over_tcp.call(request);
  ASSERT_EQ(tcp_resp.type, MsgType::ResultResponse);
  const JobResult tcp_result = decode_result_response(tcp_resp.body);

  ServerClient over_unix("unix:" + harness.socket_path);
  const Frame unix_resp = over_unix.call(request);
  ASSERT_EQ(unix_resp.type, MsgType::ResultResponse);
  const JobResult unix_result = decode_result_response(unix_resp.body);

  EXPECT_EQ(tcp_result.exit_code, 0);
  EXPECT_EQ(strip_variance(tcp_result.output), strip_variance(direct.output));
  EXPECT_EQ(strip_variance(unix_result.output),
            strip_variance(tcp_result.output));

  // Both transports run through the same connection supervisor.
  EXPECT_GE(MetricsRegistry::global().counter("server.conn.accepted").value(),
            accepted_before + 2);

  // Inline requests answer over TCP too.
  ServerClient ping(harness.tcp_endpoint());
  EXPECT_EQ(ping.call({MsgType::PingRequest, ""}).type,
            MsgType::PongResponse);
}

TEST(TimingServerTest, ConnMetricsAppearInTheJsonSnapshot) {
  ServerConfig cfg;
  cfg.listen_address = "127.0.0.1:0";
  ServerHarness harness(cfg);
  ServerClient ping(harness.tcp_endpoint());
  ASSERT_EQ(ping.call({MsgType::PingRequest, ""}).type,
            MsgType::PongResponse);

  const MetricsResponse m = fetch_remote_metrics(harness.tcp_endpoint());
  for (const char* key :
       {"server.conn.accepted", "server.conn.active", "server.conn.bytes_in",
        "server.conn.bytes_out"}) {
    EXPECT_NE(m.json.find(key), std::string::npos) << key;
  }
}

// --- batched frames ---------------------------------------------------

TEST(TimingServerTest, BatchIsByteIdenticalToSingleSpecConnections) {
  // Result cache ON: the singles run first and populate it, so the batch
  // slots for the cacheable kinds replay the *exact* stored bytes --
  // wall-time trailer included -- and optimize is deterministic anyway.
  ServerHarness harness(8, /*lanes=*/2, /*result_cache=*/16);

  AnalyzeRequest a;
  a.spec.circuits = {"C432"};
  SstaRequest s;
  s.spec.circuit = "C432";
  s.spec.clock_period_ps = 2500.0;
  s.spec.mc_samples = 100;
  OptimizeRequest o;
  o.spec.circuit = "C432";
  o.spec.max_moves = 4;

  const Frame singles_req[3] = {
      {MsgType::AnalyzeRequest, encode_analyze_request(a)},
      {MsgType::SstaRequest, encode_ssta_request(s)},
      {MsgType::OptimizeRequest, encode_optimize_request(o)},
  };
  Frame singles[3];
  for (int i = 0; i < 3; ++i) {
    ServerClient client(harness.socket_path);
    singles[i] = client.call(singles_req[i]);
    ASSERT_EQ(singles[i].type, MsgType::ResultResponse) << "single " << i;
  }

  BatchRequest batch;
  for (int i = 0; i < 3; ++i)
    batch.items.push_back(
        {static_cast<std::uint8_t>(singles_req[i].type),
         singles_req[i].body});
  ServerClient client(harness.socket_path);
  const Frame response =
      client.call({MsgType::BatchRequest, encode_batch_request(batch)});
  ASSERT_EQ(response.type, MsgType::BatchResponse);
  const BatchResponse decoded = decode_batch_response(response.body);
  ASSERT_EQ(decoded.slots.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.slots[i].type, singles[i].type) << "slot " << i;
    EXPECT_EQ(decoded.slots[i].body, singles[i].body) << "slot " << i;
  }
}

TEST(TimingServerTest, BatchMalformedSlotPoisonsOnlyItsOwnSlot) {
  ServerHarness harness(8, /*lanes=*/2);

  AnalyzeRequest a;
  a.spec.circuits = {"C432"};
  SstaRequest s;
  s.spec.circuit = "C432";
  s.spec.clock_period_ps = 2500.0;
  s.spec.mc_samples = 100;

  BatchRequest batch;
  batch.items.push_back(
      {static_cast<std::uint8_t>(MsgType::AnalyzeRequest),
       encode_analyze_request(a)});
  // Slot 1: a known type that is not a job request.
  batch.items.push_back(
      {static_cast<std::uint8_t>(MsgType::PingRequest), ""});
  // Slot 2: a job kind whose body is garbage.
  batch.items.push_back(
      {static_cast<std::uint8_t>(MsgType::AnalyzeRequest), "garbage"});
  batch.items.push_back(
      {static_cast<std::uint8_t>(MsgType::SstaRequest),
       encode_ssta_request(s)});

  ServerClient client(harness.socket_path);
  const Frame response =
      client.call({MsgType::BatchRequest, encode_batch_request(batch)});
  ASSERT_EQ(response.type, MsgType::BatchResponse);
  const BatchResponse decoded = decode_batch_response(response.body);
  ASSERT_EQ(decoded.slots.size(), 4u);

  EXPECT_EQ(decoded.slots[0].type, MsgType::ResultResponse);
  EXPECT_EQ(decode_result_response(decoded.slots[0].body).exit_code, 0);

  ASSERT_EQ(decoded.slots[1].type, MsgType::ErrorResponse);
  EXPECT_EQ(decode_error_response(decoded.slots[1].body).code,
            ProtoStatus::BadType);

  ASSERT_EQ(decoded.slots[2].type, MsgType::ErrorResponse);
  EXPECT_EQ(decode_error_response(decoded.slots[2].body).code,
            ProtoStatus::BadBody);

  EXPECT_EQ(decoded.slots[3].type, MsgType::ResultResponse);
  EXPECT_EQ(decode_result_response(decoded.slots[3].body).exit_code, 0);

  // The poisoned slots did not kill the connection or the daemon.
  EXPECT_EQ(client.call({MsgType::PingRequest, ""}).type,
            MsgType::PongResponse);
}

TEST(TimingServerTest, BatchOutputIsBitIdenticalAcrossLaneCounts) {
  AnalyzeRequest a1, a2;
  a1.spec.circuits = {"C432"};
  a2.spec.circuits = {"C880"};
  SstaRequest s;
  s.spec.circuit = "C432";
  s.spec.clock_period_ps = 2500.0;
  s.spec.mc_samples = 100;

  BatchRequest batch;
  batch.items.push_back(
      {static_cast<std::uint8_t>(MsgType::AnalyzeRequest),
       encode_analyze_request(a1)});
  batch.items.push_back(
      {static_cast<std::uint8_t>(MsgType::AnalyzeRequest),
       encode_analyze_request(a2)});
  batch.items.push_back(
      {static_cast<std::uint8_t>(MsgType::SstaRequest),
       encode_ssta_request(s)});

  const std::size_t lane_counts[2] = {1, 4};
  BatchResponse by_lanes[2];
  for (int v = 0; v < 2; ++v) {
    ServerHarness harness(8, lane_counts[v]);
    ServerClient client(harness.socket_path);
    const Frame response =
        client.call({MsgType::BatchRequest, encode_batch_request(batch)});
    ASSERT_EQ(response.type, MsgType::BatchResponse) << "lanes config " << v;
    by_lanes[v] = decode_batch_response(response.body);
    ASSERT_EQ(by_lanes[v].slots.size(), 3u);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(by_lanes[0].slots[i].type, MsgType::ResultResponse);
    ASSERT_EQ(by_lanes[1].slots[i].type, MsgType::ResultResponse);
    const JobResult one = decode_result_response(by_lanes[0].slots[i].body);
    const JobResult four = decode_result_response(by_lanes[1].slots[i].body);
    EXPECT_EQ(strip_variance(four.output), strip_variance(one.output))
        << "slot " << i;
    ASSERT_EQ(four.artifacts.size(), one.artifacts.size()) << "slot " << i;
    for (std::size_t k = 0; k < one.artifacts.size(); ++k)
      EXPECT_EQ(four.artifacts[k].bytes, one.artifacts[k].bytes)
          << "slot " << i << " artifact " << k;
  }
}

TEST(TimingServerTest, BatchBusySlotsAreResubmittedOrGivenUp) {
  // One lane, one queue slot, and every job held 50 ms: of four distinct
  // specs admitted back to back, at least the last two find the queue
  // full and come back Busy, so the client's resubmit path must land them.
  ServerHarness harness(/*queue_depth=*/1, /*lanes=*/1);
  FailPointGuard guard;
  FailPoints::set("server.lane.run", "delay(50)");

  // Analyze only: its output is all on stdout (ssta would also write its
  // default criticality CSV into the working directory).
  const std::vector<std::vector<std::string>> circuits = {
      {"C432"}, {"C499"}, {"C880"}, {"C432", "C499"}};
  std::vector<Frame> singles_req;
  for (const auto& names : circuits) {
    AnalyzeRequest req;
    req.spec.circuits = names;
    singles_req.push_back(
        {MsgType::AnalyzeRequest, encode_analyze_request(req)});
  }

  // What the batch client must print: each slot's header followed by the
  // bytes the same spec produces over its own connection.
  std::string expected;
  BatchRequest batch;
  for (int i = 0; i < 4; ++i) {
    ServerClient client(harness.socket_path);
    const Frame single = client.call(singles_req[i]);
    ASSERT_EQ(single.type, MsgType::ResultResponse) << "single " << i;
    expected += "== batch job " + std::to_string(i + 1) + "/4 ==\n" +
                decode_result_response(single.body).output;
    batch.items.push_back(
        {static_cast<std::uint8_t>(singles_req[i].type), singles_req[i].body});
  }

  ClientRetryConfig retry;
  retry.retries = 25;
  retry.initial_backoff = std::chrono::milliseconds(5);
  retry.max_jitter = std::chrono::milliseconds(5);
  const std::uint64_t rejected_before =
      MetricsRegistry::global().counter("server.jobs_rejected").value();
  testing::internal::CaptureStdout();
  const int landed = run_remote_batch(harness.socket_path, batch, {}, retry);
  const std::string landed_out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(landed, kExitOk);
  EXPECT_EQ(strip_variance(landed_out), strip_variance(expected));
  EXPECT_GT(MetricsRegistry::global().counter("server.jobs_rejected").value(),
            rejected_before)
      << "no slot was ever answered Busy";

  // No retries: the Busy slots are delivered as failures after a logged
  // give-up instead of being resubmitted.
  retry.retries = 0;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int gave_up = run_remote_batch(harness.socket_path, batch, {}, retry);
  testing::internal::GetCapturedStdout();
  const std::string gave_up_err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(gave_up, kExitJobsFailed);
  EXPECT_NE(gave_up_err.find("batch: giving up on "), std::string::npos)
      << gave_up_err;
  EXPECT_NE(gave_up_err.find(" busy slot(s) after 0 retries"),
            std::string::npos)
      << gave_up_err;
}

// --- slow-client defense ----------------------------------------------

TEST(TimingServerTest, SlowLorisPeerIsEvictedWithoutPerturbingAFastClient) {
  ServerConfig cfg;
  cfg.conn_limits.read_timeout_ms = 200;  // evict mid-frame stalls fast
  ServerHarness harness(cfg);
  const std::uint64_t evicted_before =
      MetricsRegistry::global().counter("server.conn.evicted_slow").value();

  const SvaFlow& flow = shared_flow();
  AnalyzeJobSpec spec;
  spec.circuits = {"C432"};
  ThreadPool direct_pool(2);
  const JobResult direct = run_analyze_job(flow, direct_pool, spec, nullptr);

  // The slow loris: open a frame with 4 of its 8 header bytes, then
  // drip nothing.  Progress never extends the budget, so the read
  // deadline expires whatever the peer promises.
  Fd loris = unix_connect(harness.socket_path);
  const std::string ping = encode_frame({MsgType::PingRequest, ""});
  write_all(loris.get(), ping.data(), 4);

  // A fast client served concurrently with the stalled peer must get
  // bytes identical to a direct run.
  ServerClient fast(harness.socket_path);
  AnalyzeRequest req;
  req.spec = spec;
  const Frame response =
      fast.call({MsgType::AnalyzeRequest, encode_analyze_request(req)});
  ASSERT_EQ(response.type, MsgType::ResultResponse);
  const JobResult remote = decode_result_response(response.body);
  EXPECT_EQ(remote.exit_code, 0);
  EXPECT_EQ(strip_variance(remote.output), strip_variance(direct.output));

  // The loris is evicted: its connection reaches EOF (or a reset, when
  // the kernel still held unread bytes) and the counter records why.
  bool dropped = false;
  try {
    dropped = !read_frame(loris.get()).has_value();
  } catch (const SocketError&) {
    dropped = true;
  }
  EXPECT_TRUE(dropped);
  for (int i = 0; i < 100 && MetricsRegistry::global()
                                     .counter("server.conn.evicted_slow")
                                     .value() == evicted_before;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(
      MetricsRegistry::global().counter("server.conn.evicted_slow").value(),
      evicted_before);

  // The daemon still serves.
  ServerClient next(harness.socket_path);
  EXPECT_EQ(next.call({MsgType::PingRequest, ""}).type,
            MsgType::PongResponse);
}

TEST(TimingServerTest, IdleConnectionIsEvictedAfterItsBudget) {
  ServerConfig cfg;
  cfg.conn_limits.idle_timeout_ms = 150;
  ServerHarness harness(cfg);
  const std::uint64_t evicted_before =
      MetricsRegistry::global().counter("server.conn.evicted_slow").value();

  // A well-formed exchange, then silence: the idle budget reclaims the
  // parked connection.
  Fd idle = unix_connect(harness.socket_path);
  const std::string ping = encode_frame({MsgType::PingRequest, ""});
  write_all(idle.get(), ping.data(), ping.size());
  std::optional<Frame> pong = read_frame(idle.get());
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, MsgType::PongResponse);

  EXPECT_FALSE(read_frame(idle.get()).has_value())
      << "parked connection was not closed";
  EXPECT_GT(
      MetricsRegistry::global().counter("server.conn.evicted_slow").value(),
      evicted_before);
}

// --- overload shedding ------------------------------------------------

TEST(TimingServerTest, OverMaxConnsIsShedWithBusyAndRetryHint) {
  ServerConfig cfg;
  cfg.max_conns = 1;
  cfg.conn_limits.idle_timeout_ms = 0;  // let the holder park indefinitely
  ServerHarness harness(cfg);
  const std::uint64_t shed_before =
      MetricsRegistry::global().counter("server.conn.shed_busy").value();

  // Acquire the one supervised slot.  The harness's listen probe may
  // still hold it for a poll tick, so retry until a full ping round-trip
  // proves this connection is the supervised one.  A shed connection
  // answers Busy and is closed at once, so a ping written after that
  // close fails with EPIPE (or the read sees a reset or EOF): that is a
  // shed attempt too, not a test failure.
  Fd holder;
  bool held = false;
  const std::string hold_ping = encode_frame({MsgType::PingRequest, ""});
  for (int i = 0; i < 200 && !held; ++i) {
    std::optional<Frame> hold_pong;
    try {
      holder = unix_connect(harness.socket_path);
      write_all(holder.get(), hold_ping.data(), hold_ping.size());
      hold_pong = read_frame(holder.get());
    } catch (const SocketError&) {
    }
    if (hold_pong && hold_pong->type == MsgType::PongResponse) {
      held = true;
    } else {
      holder.close_now();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(held) << "never acquired the supervised connection slot";

  Fd rejected = unix_connect(harness.socket_path);
  std::optional<Frame> response = read_frame(rejected.get());
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MsgType::BusyResponse);
  const BusyResponse busy = decode_busy_response(response->body);
  EXPECT_GT(busy.retry_after_ms, 0u);
  EXPECT_FALSE(read_frame(rejected.get()).has_value())
      << "shed connection left open";
  EXPECT_GT(MetricsRegistry::global().counter("server.conn.shed_busy").value(),
            shed_before);

  // Freeing the held slot restores service (Busy answers continue until
  // the holder's handler notices the close and releases the slot).
  holder.close_now();
  for (int i = 0; i < 200; ++i) {
    try {
      ServerClient next(harness.socket_path);
      if (next.call({MsgType::PingRequest, ""}).type ==
          MsgType::PongResponse)
        return;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "slot never freed after the holder disconnected";
}

// --- connection failpoints --------------------------------------------

TEST(TimingServerTest, ConnReadFaultIsACleanDropTheRetryPathAbsorbs) {
  ServerHarness harness;
  FailPointGuard guard;

  // Deterministic: the supervised read faults before any byte moves, so
  // the client sees a pre-response EOF -- the transient class.
  FailPoints::set("server.conn.read", "throw");
  EXPECT_THROW(
      call_server_with_retry(harness.socket_path,
                             {MsgType::PingRequest, ""}, {}),
      TransientError);
  EXPECT_GT(FailPoints::fired_count("server.conn.read"), 0u);
  FailPoints::clear("server.conn.read");

  // Probabilistic: a retried client always lands the answer.
  FailPoints::set("server.conn.read", "prob(0.5)");
  ClientRetryConfig retry;
  retry.retries = 25;
  retry.initial_backoff = std::chrono::milliseconds(2);
  const Frame pong = call_server_with_retry(
      harness.socket_path, {MsgType::PingRequest, ""}, retry);
  EXPECT_EQ(pong.type, MsgType::PongResponse);
}

TEST(TimingServerTest, ConnWriteFaultDropsTheResponseNotTheDaemon) {
  ServerHarness harness;
  FailPointGuard guard;

  FailPoints::set("server.conn.write", "throw");
  EXPECT_THROW(
      call_server_with_retry(harness.socket_path,
                             {MsgType::PingRequest, ""}, {}),
      TransientError);
  EXPECT_GT(FailPoints::fired_count("server.conn.write"), 0u);
  FailPoints::clear("server.conn.write");

  ServerClient next(harness.socket_path);
  EXPECT_EQ(next.call({MsgType::PingRequest, ""}).type,
            MsgType::PongResponse);
}

}  // namespace
}  // namespace sva
