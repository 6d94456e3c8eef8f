#pragma once
// Deterministic multi-circuit batch runner over the SVA flow.
//
// A batch is a list of jobs (benchmark circuit names today; the struct
// leaves room for per-job knobs).  Jobs fan out across the pool; inside a
// job the six corner STA runs fan out again, and each run levelizes
// across the pool too -- all three tiers compose because waiting
// threads execute queued work (see thread_pool.hpp).  Results land in a
// vector indexed by job, so the output ordering -- and, because every
// computation is bit-exact under reordering, the output values -- are
// independent of thread count and schedule.

#include <cstdint>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "engine/thread_pool.hpp"
#include "util/cancel.hpp"

namespace sva {

struct BatchJob {
  std::string circuit;  ///< built-in benchmark name (e.g. "C432")
};

struct BatchOptions {
  /// Per-job fault isolation: a throwing job records a Failed outcome (and
  /// a "batch_job_failed" diagnostic) in its own slot, deterministically,
  /// and every other job still runs.  false => run() raises the first
  /// failure in job order after all jobs settle (the CLI's --strict).
  bool keep_going = true;
  /// Cooperative cancellation: polled at every job boundary and inside
  /// each job's corner fan-out / levelized STA.  A job in flight when the
  /// token trips finishes or unwinds cleanly; its slot and every not-yet-
  /// started slot are marked cancelled (run() itself still returns).
  const CancelToken* cancel = nullptr;
};

/// Terminal classification of one batch job.
struct BatchJobOutcome {
  bool ok = true;
  std::string error;  ///< empty when ok
  /// The job did not run to completion because the run was cancelled.  A
  /// cancelled slot is *incomplete*, not failed: it is excluded from
  /// failed_count() and is exactly the work a resumed run re-executes.
  bool cancelled = false;
};

struct BatchResult {
  /// One per job, in job order.  A failed job's slot carries the circuit
  /// name with zeroed results -- deterministic regardless of where in the
  /// job the fault hit.
  std::vector<CircuitAnalysis> analyses;
  std::vector<BatchJobOutcome> outcomes;  ///< index-aligned with analyses
  double wall_seconds = 0.0;

  std::size_t failed_count() const;     ///< failed, excluding cancelled
  std::size_t cancelled_count() const;  ///< incomplete due to cancellation
  bool all_ok() const { return failed_count() == 0 && cancelled_count() == 0; }
};

class BatchRunner {
 public:
  /// `flow` and `pool` must outlive the runner.
  BatchRunner(const SvaFlow& flow, ThreadPool& pool,
              BatchOptions options = {});

  /// Run every job.  With `resume_from`, slots whose prior outcome is
  /// final (completed or deterministically failed -- anything not marked
  /// cancelled) are copied over and skipped; only cancelled slots
  /// re-execute.  Because each job is a pure function of (flow, circuit),
  /// the merged result is bit-identical to an uninterrupted run.
  /// `resume_from` must have one outcome per job, in the same job order
  /// (load_batch_checkpoint verifies this via the content hash).
  BatchResult run(const std::vector<BatchJob>& jobs,
                  const BatchResult* resume_from = nullptr) const;
  BatchResult run_names(const std::vector<std::string>& names) const;

 private:
  const SvaFlow* flow_;
  ThreadPool* pool_;
  BatchOptions options_;
};

/// Identity of a batch run for checkpoint validation: the flow's setup
/// content hash (library + tech + optics + binning) combined with the job
/// list.  Any difference in either produces a different hash, so a
/// checkpoint can never be resumed against inputs it was not written for.
std::uint64_t batch_content_hash(const SvaFlow& flow,
                                 const std::vector<BatchJob>& jobs);

/// Journal the final (non-cancelled) slots of `partial` to `path` in a
/// "batch"-kind sealed file (util/sealed_file.hpp).  Throws
/// sva::Error on IO failure.
void save_batch_checkpoint(const std::string& path, const SvaFlow& flow,
                           const std::vector<BatchJob>& jobs,
                           const BatchResult& partial);

/// Reload a batch checkpoint for exactly these (flow, jobs).  Slots absent
/// from the journal come back marked cancelled (i.e. to-run).  Throws
/// FileMissingError / SerializeError on absence, corruption, or an
/// identity mismatch.
BatchResult load_batch_checkpoint(const std::string& path,
                                  const SvaFlow& flow,
                                  const std::vector<BatchJob>& jobs);

}  // namespace sva
