#pragma once
// Shared pieces of the perfbench harness: the per-workload spec pools and
// their stored reference outputs, output digests, the seeded job order,
// and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "server/jobs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

enum class JobKind { Analyze, Ssta, Optimize };

/// One entry of a workload's fixed spec pool, in the CLI's own grammar
/// (`analyze C432 C880`, `ssta C880 --global-share 0.3`, `optimize C432
/// --corner trad --clock 2.075`), with the reference the direct run of the
/// seed commit produced for it.
struct PoolSpec {
  std::string workload;
  std::string text;
  JobKind kind = JobKind::Analyze;
  sva::AnalyzeJobSpec analyze;
  sva::SstaJobSpec ssta;
  sva::OptimizeJobSpec optimize;
  int ref_exit = 0;
  std::uint64_t ref_digest = 0;
  std::uint64_t ref_bytes = 0;
};

/// Parse one spec line (same flags and units as the CLI commands).
/// Throws std::runtime_error on anything the CLI would reject.
PoolSpec parse_spec(const std::string& workload, const std::string& text);

/// Load every spec of `workload` from the reference file (TSV rows of
/// workload, spec, exit code, digest, bytes).  Throws when the file is
/// missing or malformed, or holds no spec for the workload.
std::vector<PoolSpec> load_pool(const std::string& path,
                                const std::string& workload);

/// Drop analyze's "(N circuits, T threads, X s)" wall-time trailer, the one
/// line that differs between two runs of the same spec.
std::string strip_wall_time(const std::string& text);

/// What a job delivered, reduced to the bytes a user sees: exit code, error,
/// output text without the wall-time trailer, and every artifact.
struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t bytes = 0;
  bool operator==(const Digest&) const = default;
};
Digest digest_of(const sva::JobResult& result);

/// The spec's job function called directly on a hot flow (no cache dir, no
/// checkpoints), as the daemon's executor runs it.
sva::JobResult run_direct(const sva::SvaFlow& flow, const sva::SizedLibrary& sized,
                          sva::ThreadPool& pool, const PoolSpec& spec);

/// Empty when `result` matches the spec's reference; otherwise why not.
/// Analyze results must also keep every Table 2 row's reduction inside the
/// paper's 28-40% band.
std::string check_result(const PoolSpec& spec, const sva::JobResult& result);

/// Seeded job order: the pool is dealt as a sequence of shuffled decks, so
/// every spec appears once per deck.  Runs stop at a deck boundary, so the
/// mix of a run does not depend on the seed; the seed only orders it.
class Dealer {
 public:
  Dealer(std::size_t pool_size, std::uint64_t seed);
  std::size_t next();
  /// True before the first deal and whenever a deck has been dealt out.
  bool deck_done() const { return pos_ == deck_.size(); }
  std::mt19937_64& rng() { return rng_; }

 private:
  std::vector<std::size_t> deck_;
  std::size_t pos_ = 0;
  std::mt19937_64 rng_;
};

/// Linear-interpolation percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

}  // namespace perfbench
