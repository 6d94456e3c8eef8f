#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// Spans kept per recorder; later spans still count toward the layer
/// totals but are not written to the trace file.
constexpr std::size_t kMaxSpans = 200'000;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

Recorder::Recorder(bool enabled, std::uint32_t tid, Clock::time_point epoch)
    : enabled_(enabled), tid_(tid), epoch_(epoch) {}

std::int64_t Recorder::open(const std::string& name, Clock::time_point t0) {
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back({name, us_between(epoch_, t0), 0.0, tid_, job_id_, parent_});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Recorder::finish(std::int64_t index, Clock::time_point t0) {
  if (index >= 0)
    spans_[static_cast<std::size_t>(index)].dur_us = us_between(t0, Clock::now());
}

void Recorder::close(const char* name, Clock::time_point t0, bool is_layer) {
  if (!enabled_) return;
  const Clock::time_point t1 = Clock::now();
  const double us = us_between(t0, t1);
  if (is_layer) layer_ms_[name] += us / 1000.0;
  if (spans_.size() < kMaxSpans)
    spans_.push_back({name, us_between(epoch_, t0), us, tid_, job_id_, parent_});
}

void Recorder::begin_job() {
  if (!enabled_) return;
  ++job_id_;
  job_start_ = Clock::now();
  job_span_ = open("job", job_start_);
  parent_ = job_span_;
}

double Recorder::end_job() {
  if (!enabled_) return 0.0;
  finish(job_span_, job_start_);
  parent_ = -1;
  ++jobs_;
  const double ms = us_between(job_start_, Clock::now()) / 1000.0;
  job_ms_total_ += ms;
  return ms;
}

void write_trace_file(const std::string& path,
                      const std::vector<const Recorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const Recorder* r : recorders) {
    for (const SpanRecord& s : r->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,"
                   "\"parent\":%lld}}",
                   first ? "" : ",", s.name.c_str(), s.tid, s.start_us,
                   s.dur_us, static_cast<unsigned long long>(s.job),
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace file " + path);
}

}  // namespace perfbench
