#pragma once
// The four perfbench workloads and what one run of one of them reports.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< per-spec reference outputs (TSV)
  std::string cli_path;        ///< the built sva-timing binary
  std::string trace_path;      ///< where a traced run writes its spans
  std::string commit;          ///< provenance: source revision of the build
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every correctness failure: mismatching jobs and failed checks of the
  /// run as a whole (setup replica, daemon-vs-direct identity).
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Host fingerprint and run settings, as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> provenance;
};

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();

/// Set up, run and check one workload for opts.seconds.  Untraced runs
/// report the end-to-end metrics; traced runs the per-layer metrics.
/// Throws on a usage error or a setup that cannot start.
Report run_workload(const Options& opts);

/// Regenerate the spec pools and their reference outputs from direct runs
/// of the current build; writes the TSV the benchmark checks against.
void record_references(const std::string& path);

}  // namespace perfbench
