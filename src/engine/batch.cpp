#include "engine/batch.hpp"

#include <chrono>

#include "util/diagnostics.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/sealed_file.hpp"
#include "util/serialize.hpp"

namespace sva {

std::size_t BatchResult::failed_count() const {
  std::size_t n = 0;
  for (const BatchJobOutcome& o : outcomes)
    if (!o.ok && !o.cancelled) ++n;
  return n;
}

std::size_t BatchResult::cancelled_count() const {
  std::size_t n = 0;
  for (const BatchJobOutcome& o : outcomes)
    if (o.cancelled) ++n;
  return n;
}

BatchRunner::BatchRunner(const SvaFlow& flow, ThreadPool& pool,
                         BatchOptions options)
    : flow_(&flow), pool_(&pool), options_(options) {}

BatchResult BatchRunner::run(const std::vector<BatchJob>& jobs,
                             const BatchResult* resume_from) const {
  const auto t0 = std::chrono::steady_clock::now();
  ScopedTimer timer(MetricsRegistry::global().timer("batch.run"));
  MetricsRegistry::global().counter("batch.jobs").add(jobs.size());
  if (resume_from != nullptr) {
    SVA_REQUIRE_MSG(resume_from->outcomes.size() == jobs.size() &&
                        resume_from->analyses.size() == jobs.size(),
                    "resume state does not match the job list");
  }

  const CancelToken* cancel = options_.cancel;
  BatchResult out;
  out.analyses.resize(jobs.size());
  out.outcomes.resize(jobs.size());
  // The group is NOT given the token: cancellation must land in per-job
  // slots (so the checkpoint knows exactly which jobs are final), not
  // surface as an exception out of wait().
  TaskGroup group(*pool_);
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    if (resume_from != nullptr && !resume_from->outcomes[ji].cancelled) {
      // Final slot from the prior run (completed or deterministically
      // failed): copy, don't recompute.  Bit-identical by purity.
      out.analyses[ji] = resume_from->analyses[ji];
      out.outcomes[ji] = resume_from->outcomes[ji];
      MetricsRegistry::global().counter("batch.jobs_resumed").add();
      continue;
    }
    group.run([this, &jobs, &out, cancel, ji] {
      const std::string& circuit = jobs[ji].circuit;
      try {
        if (cancel != nullptr) cancel->check();
        // Keyed by circuit name: a prob() fault fails the same
        // deterministic subset of jobs in every run and schedule.
        SVA_FAILPOINT_KEYED("batch.job",
                            fnv1a64(circuit.data(), circuit.size()));
        const Netlist netlist = flow_->make_benchmark(circuit);
        const Placement placement = flow_->make_placement(netlist);
        out.analyses[ji] = flow_->analyze(netlist, placement, *pool_, cancel);
      } catch (const CancelledError& e) {
        // Incomplete, not failed: the slot re-runs on resume.  No
        // diagnostic -- cancellation is a user action, not a degradation.
        out.analyses[ji] = CircuitAnalysis{};
        out.analyses[ji].name = circuit;
        out.outcomes[ji] = {false, e.what(), /*cancelled=*/true};
        MetricsRegistry::global().counter("batch.jobs_cancelled").add();
      } catch (const std::exception& e) {
        // Isolate the fault to this job's slot: deterministic failed
        // result (name only, zeroed numbers), batch continues.
        out.analyses[ji] = CircuitAnalysis{};
        out.analyses[ji].name = circuit;
        out.outcomes[ji] = {false, e.what()};
        MetricsRegistry::global().counter("batch.jobs_failed").add();
        diag_warn("batch", "batch_job_failed",
                  "job " + std::to_string(ji) + " (" + circuit +
                      ") failed: " + e.what());
      }
    });
  }
  group.wait();
  if (!options_.keep_going) {
    for (std::size_t ji = 0; ji < jobs.size(); ++ji)
      if (!out.outcomes[ji].ok && !out.outcomes[ji].cancelled)
        throw Error("batch job " + std::to_string(ji) + " (" +
                    jobs[ji].circuit + ") failed: " + out.outcomes[ji].error);
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

BatchResult BatchRunner::run_names(
    const std::vector<std::string>& names) const {
  std::vector<BatchJob> jobs;
  jobs.reserve(names.size());
  for (const std::string& name : names) jobs.push_back({name});
  return run(jobs);
}

namespace {

constexpr char kBatchCheckpointKind[] = "batch";

void serialize_analysis(ByteWriter& w, const CircuitAnalysis& a) {
  w.str(a.name);
  w.u64(a.gate_count);
  w.f64(a.trad_nom_ps);
  w.f64(a.trad_bc_ps);
  w.f64(a.trad_wc_ps);
  w.f64(a.sva_nom_ps);
  w.f64(a.sva_bc_ps);
  w.f64(a.sva_wc_ps);
  w.u64(a.arc_class_counts.size());
  for (std::size_t c : a.arc_class_counts) w.u64(c);
}

CircuitAnalysis deserialize_analysis(ByteReader& r) {
  CircuitAnalysis a;
  a.name = r.str();
  a.gate_count = static_cast<std::size_t>(r.u64());
  a.trad_nom_ps = r.f64();
  a.trad_bc_ps = r.f64();
  a.trad_wc_ps = r.f64();
  a.sva_nom_ps = r.f64();
  a.sva_bc_ps = r.f64();
  a.sva_wc_ps = r.f64();
  const std::uint64_t n = r.u64();
  if (n > 1024) throw SerializeError("corrupt arc-class count");
  a.arc_class_counts.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < a.arc_class_counts.size(); ++i)
    a.arc_class_counts[i] = static_cast<std::size_t>(r.u64());
  return a;
}

}  // namespace

std::uint64_t batch_content_hash(const SvaFlow& flow,
                                 const std::vector<BatchJob>& jobs) {
  Fnv1aHasher h;
  h.u64(flow.setup_content_hash());
  h.u64(jobs.size());
  for (const BatchJob& job : jobs) h.str(job.circuit);
  return h.digest();
}

void save_batch_checkpoint(const std::string& path, const SvaFlow& flow,
                           const std::vector<BatchJob>& jobs,
                           const BatchResult& partial) {
  SVA_REQUIRE(partial.outcomes.size() == jobs.size());
  SVA_REQUIRE(partial.analyses.size() == jobs.size());
  SVA_FAILPOINT("checkpoint.write");
  ByteWriter w;
  w.u64(jobs.size());
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    const BatchJobOutcome& o = partial.outcomes[ji];
    w.str(jobs[ji].circuit);
    const bool final_slot = !o.cancelled;
    w.u8(final_slot ? 1 : 0);
    if (!final_slot) continue;
    w.u8(o.ok ? 1 : 0);
    w.str(o.error);
    serialize_analysis(w, partial.analyses[ji]);
  }
  write_sealed_file(path, kBatchCheckpointKind,
                    batch_content_hash(flow, jobs), w.bytes());
}

BatchResult load_batch_checkpoint(const std::string& path,
                                  const SvaFlow& flow,
                                  const std::vector<BatchJob>& jobs) {
  const std::string payload = read_sealed_file(
      path, kBatchCheckpointKind, batch_content_hash(flow, jobs));
  ByteReader r(payload);
  if (r.u64() != jobs.size())
    throw SerializeError("batch checkpoint job count mismatch");
  BatchResult out;
  out.analyses.resize(jobs.size());
  out.outcomes.resize(jobs.size());
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    if (r.str() != jobs[ji].circuit)
      throw SerializeError("batch checkpoint job order mismatch");
    const bool final_slot = r.u8() != 0;
    if (!final_slot) {
      out.analyses[ji].name = jobs[ji].circuit;
      out.outcomes[ji] = {false, "cancelled", /*cancelled=*/true};
      continue;
    }
    const bool ok = r.u8() != 0;
    std::string error = r.str();
    out.analyses[ji] = deserialize_analysis(r);
    out.outcomes[ji] = {ok, std::move(error), /*cancelled=*/false};
  }
  r.expect_end();
  return out;
}

}  // namespace sva
