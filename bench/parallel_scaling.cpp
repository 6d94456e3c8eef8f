// Parallel scaling of the batch runner over the full Table 2 sweep.
//
// Runs the five-benchmark corner sweep at 1/2/4/8 threads and writes
// BENCH_parallel.json with wall times and speedups (plus the machine's
// hardware concurrency, without which the numbers are meaningless --
// speedup saturates at the physical core count).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "engine/batch.hpp"
#include "engine/thread_pool.hpp"
#include "report/csv.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

using namespace sva;

namespace {

const std::vector<std::string> kCircuits = {"C432", "C880", "C1355", "C1908",
                                            "C3540"};
/// Each measured batch runs the sweep this many times over (independent
/// jobs), lifting the timed region out of scheduler-noise territory.
constexpr int kReplicas = 8;

double best_wall_seconds(const SvaFlow& flow, std::size_t threads,
                         int repeats) {
  std::vector<std::string> names;
  for (int r = 0; r < kReplicas; ++r)
    names.insert(names.end(), kCircuits.begin(), kCircuits.end());
  double best = 1e30;
  for (int r = 0; r < repeats; ++r) {
    ThreadPool pool(threads);
    const BatchRunner runner(flow, pool);
    const BatchResult result = runner.run_names(names);
    best = std::min(best, result.wall_seconds);
  }
  return best;
}

}  // namespace

int main() {
  std::printf("=== Parallel scaling: Table 2 sweep via the batch runner "
              "===\n");
  std::printf("hardware concurrency: %zu\n\n",
              ThreadPool::default_thread_count());

  const SvaFlow flow{FlowConfig{}};
  // Warm every lazily characterized (cell, version) slot once so thread
  // sweeps measure execution, not first-touch characterization.
  {
    ThreadPool pool(1);
    BatchRunner(flow, pool).run_names(kCircuits);
  }

  const int repeats = 3;
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<double> walls;
  for (std::size_t threads : thread_counts)
    walls.push_back(best_wall_seconds(flow, threads, repeats));

  std::string json = "{\n";
  json += "  \"bench\": \"parallel_scaling\",\n";
  json += "  \"sweep\": \"table2\",\n";
  json += "  \"circuits\": " + std::to_string(kCircuits.size()) + ",\n";
  json += "  \"replicas\": " + std::to_string(kReplicas) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(ThreadPool::default_thread_count()) + ",\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const double speedup = walls[0] / walls[i];
    std::printf("  %2zu threads: %8.3f s  (speedup %.2fx)\n",
                thread_counts[i], walls[i], speedup);
    json += "    {\"threads\": " + std::to_string(thread_counts[i]) +
            ", \"wall_s\": " + fmt(walls[i], 4) +
            ", \"speedup\": " + fmt(speedup, 3) + "}";
    json += (i + 1 < thread_counts.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  write_text_file("BENCH_parallel.json", json);
  std::printf("\nwrote BENCH_parallel.json\n");

  std::printf("\nengine metrics:\n%s",
              MetricsRegistry::global().render().c_str());
  return 0;
}
