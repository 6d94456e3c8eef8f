// perfbench: one workload of the SVA-timing benchmark, in this process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE [--cli PATH] [--trace-file PATH]
//             [--commit REV]
//   perfbench --record FILE
//
// Runs from (and writes only into) the current directory, which the
// caller makes a fresh, empty directory.  Prints a provenance line, then
// as the last line {"correct", "attempted", "failed", "metrics"}.  Exits 0
// when every output matched its reference, 1 when one did not, 2 on a
// usage or set-up error (without a result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc)
    throw std::invalid_argument(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string record;
  try {
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--workload") opts.workload = arg_value(argc, argv, i);
      else if (flag == "--seed") {
        opts.seed = std::stoull(arg_value(argc, argv, i));
        have_seed = true;
      } else if (flag == "--seconds") opts.seconds = std::stod(arg_value(argc, argv, i));
      else if (flag == "--trace") {
        const std::string v = arg_value(argc, argv, i);
        if (v != "0" && v != "1") throw std::invalid_argument("--trace expects 0 or 1");
        opts.trace = v == "1";
      } else if (flag == "--reference") opts.reference_path = arg_value(argc, argv, i);
      else if (flag == "--cli") opts.cli_path = arg_value(argc, argv, i);
      else if (flag == "--trace-file") opts.trace_path = arg_value(argc, argv, i);
      else if (flag == "--commit") opts.commit = arg_value(argc, argv, i);
      else if (flag == "--record") record = arg_value(argc, argv, i);
      else throw std::invalid_argument("unknown argument " + flag);
    }
    if (!record.empty()) {
      perfbench::record_references(record);
      return 0;
    }
    if (opts.workload.empty() || !have_seed || opts.reference_path.empty() ||
        !(opts.seconds > 0.0))
      throw std::invalid_argument(
          "need --workload, --seed, --seconds > 0 and --reference");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  perfbench::Report report;
  std::string metrics, samples, prov;
  try {
    report = perfbench::run_workload(opts);
    for (const perfbench::Metric& m : report.metrics) {
      metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
                 ": {\"value\": " + json_number(m.value) +
                 ", \"unit\": " + json_string(m.unit) + "}";
      samples += (samples.empty() ? "" : ", ") + json_string(m.name) + ": " +
                 std::to_string(m.samples);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  prov = "\"workload\": " + json_string(opts.workload) +
         ", \"seed\": " + std::to_string(opts.seed) +
         ", \"seconds\": " + json_number(opts.seconds) +
         ", \"trace\": " + (opts.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + json_string(opts.commit);
  for (const auto& [key, value] : report.provenance)
    prov += ", " + json_string(key) + ": " + value;
  std::string errors;
  for (const std::string& e : report.errors)
    errors += (errors.empty() ? "" : ", ") + json_string(e);
  const double fail_rate =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 0.0;
  std::printf("{\"provenance\": {%s}, \"samples\": {%s}, \"fail_rate\": %s, "
              "\"errors\": [%s]}\n",
              prov.c_str(), samples.c_str(), json_number(fail_rate).c_str(),
              errors.c_str());

  const bool correct = report.errors.empty() && report.failed == 0 &&
                       report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
