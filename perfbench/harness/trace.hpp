#pragma once
// Spans around the calls the harness makes into each module.
//
// A traced job runs as the same sequence of public calls the job's command
// makes, each wrapped in layer(): the span's wall time is added to that
// layer's total for the job.  Layer spans are leaves that never overlap, so
// per job
//
//     job time = sum of layer times + unattributed
//
// holds exactly.  group() spans (one per circuit) only structure the trace
// file.  A disabled recorder runs the same calls without reading the clock:
// that is the untraced side of the trace-overhead measurement.

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
  std::uint64_t job = 0;
  std::int64_t parent = -1;  ///< index into the same recorder's spans
};

class Recorder {
 public:
  Recorder(bool enabled, std::uint32_t tid, Clock::time_point epoch);

  bool enabled() const { return enabled_; }

  /// Time fn() as one span of `layer`; returns what fn returns.
  template <class F>
  auto layer(const char* name, F&& fn) {
    const Clock::time_point t0 = enabled_ ? Clock::now() : Clock::time_point{};
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      fn();
      close(name, t0, /*is_layer=*/true);
    } else {
      auto out = fn();
      close(name, t0, /*is_layer=*/true);
      return out;
    }
  }

  /// A structural span (e.g. one circuit of a multi-circuit job).
  template <class F>
  void group(const std::string& name, F&& fn) {
    const Clock::time_point t0 = enabled_ ? Clock::now() : Clock::time_point{};
    const std::int64_t saved = parent_;
    if (enabled_) parent_ = open(name, t0);
    fn();
    if (enabled_) {
      finish(parent_, t0);
      parent_ = saved;
    }
  }

  void begin_job();
  /// Ends the job; returns its wall time in ms (0 when disabled).
  double end_job();

  /// Sum over this recorder's jobs of each layer's time (ms).
  const std::map<std::string, double>& layer_ms() const { return layer_ms_; }
  std::size_t jobs() const { return jobs_; }
  double job_ms_total() const { return job_ms_total_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t open(const std::string& name, Clock::time_point t0);
  void finish(std::int64_t index, Clock::time_point t0);
  void close(const char* name, Clock::time_point t0, bool is_layer);

  bool enabled_;
  std::uint32_t tid_;
  Clock::time_point epoch_;
  Clock::time_point job_start_{};
  std::int64_t job_span_ = -1;
  std::int64_t parent_ = -1;
  std::uint64_t job_id_ = 0;
  std::size_t jobs_ = 0;
  double job_ms_total_ = 0.0;
  std::map<std::string, double> layer_ms_;
  std::vector<SpanRecord> spans_;
};

/// Write the spans of every recorder as Chrome trace-event JSON ("X" events,
/// one thread lane per recorder; args carry the job id and parent span).
void write_trace_file(const std::string& path,
                      const std::vector<const Recorder*>& recorders);

}  // namespace perfbench
