// Persistent characterization-cache benchmark: cold vs warm start.
//
// The flow's characterization stage -- library OPC of every master plus
// the post-OPC pitch->CD gratings -- dominates startup (tens of ms of
// litho simulation), and the 81-version context expansion rides on top of
// it.  Both are pure functions of the configuration, so the persistent
// cache snapshots them once and later runs restore bit-identical products
// from disk.  This bench quantifies the warm-start win:
//
//   * setup stage: SvaFlow construction cold (full OPC) vs warm (snapshot
//     restore), products asserted bit-identical;
//   * version expansion: characterizing every (cell, version) slot from
//     scratch vs restoring the slot snapshot;
//   * per Table-2 circuit: full startup (flow construction + the slots
//     that circuit's placement touches), cold vs warm.
//
// Writes BENCH_cache.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "engine/context_cache.hpp"
#include "place/context.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace sva;

namespace {

const std::vector<std::string> kTable2Circuits = {"C432", "C880", "C1355",
                                                  "C1908", "C3540"};
constexpr int kRepeats = 3;

std::uint64_t ns_of(const std::chrono::steady_clock::time_point& t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

FlowConfig config_with_cache(const std::string& dir) {
  FlowConfig cfg;
  cfg.cache_dir = dir;
  return cfg;
}

/// The distinct (cell, version index) slots a placed circuit touches.
std::vector<std::pair<std::size_t, std::size_t>> touched_slots(
    const SvaFlow& flow, const std::string& name) {
  const Netlist netlist = flow.make_benchmark(name);
  const Placement placement = flow.make_placement(netlist);
  const auto versions = flow.bind_versions(placement);
  const std::size_t bins = flow.config().bins.count();
  std::set<std::pair<std::size_t, std::size_t>> slots;
  for (std::size_t gi = 0; gi < netlist.gates().size(); ++gi)
    slots.insert({netlist.gates()[gi].cell_index,
                  version_index(versions[gi], bins)});
  return {slots.begin(), slots.end()};
}

/// Characterize the given slots on a cache; returns wall ns.
std::uint64_t time_fill(
    const ContextCache& cache,
    const std::vector<std::pair<std::size_t, std::size_t>>& slots,
    std::size_t bins) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [ci, vi] : slots)
    cache.version_lengths(ci, version_key(vi, bins));
  return ns_of(t0);
}

void assert_identical(
    const ContextCache& a, const ContextCache& b,
    const std::vector<std::pair<std::size_t, std::size_t>>& slots,
    std::size_t bins) {
  for (const auto& [ci, vi] : slots) {
    const VersionKey key = version_key(vi, bins);
    SVA_ASSERT_MSG(a.version_lengths(ci, key) == b.version_lengths(ci, key),
                   "warm slot differs from cold slot");
  }
}

}  // namespace

int main() {
  std::printf("=== Persistent characterization cache: cold vs warm ===\n\n");
  const std::string cache_dir = ".bench_cache_tmp";
  std::filesystem::remove_all(cache_dir);

  // Seed flow: cold construction that also writes the setup snapshot.
  const SvaFlow flow{config_with_cache(cache_dir)};
  SVA_ASSERT(!flow.setup_from_cache());
  const ContextLibrary& library = flow.context_library();
  const std::size_t bins = flow.config().bins.count();
  const std::size_t cells = library.characterized().cells.size();
  const std::size_t versions = library.bins().version_count();

  // --- Setup stage: library OPC + pitch characterization. ------------
  std::uint64_t setup_cold = ~0ull, setup_warm = ~0ull;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const SvaFlow cold{FlowConfig{}};
    setup_cold = std::min(setup_cold, ns_of(t0));

    const auto t1 = std::chrono::steady_clock::now();
    const SvaFlow warm{config_with_cache(cache_dir)};
    setup_warm = std::min(setup_warm, ns_of(t1));
    SVA_ASSERT(warm.setup_from_cache());
    SVA_ASSERT_MSG(warm.pitch_points().size() == cold.pitch_points().size(),
                   "warm pitch table differs");
    for (std::size_t i = 0; i < cold.pitch_points().size(); ++i)
      SVA_ASSERT_MSG(warm.pitch_points()[i].printed_cd ==
                         cold.pitch_points()[i].printed_cd,
                     "warm pitch CD differs from cold");
    for (std::size_t ci = 0; ci < cold.library_opc_results().size(); ++ci)
      SVA_ASSERT_MSG(warm.library_opc_results()[ci].device_cd ==
                         cold.library_opc_results()[ci].device_cd,
                     "warm library-OPC CDs differ from cold");
  }
  const double setup_speedup =
      static_cast<double>(setup_cold) / static_cast<double>(setup_warm);
  std::printf("setup stage (library OPC + pitch gratings):\n");
  std::printf("  cold characterize: %8.3f ms\n", setup_cold * 1e-6);
  std::printf("  warm restore:      %8.3f ms   (speedup %.1fx)\n\n",
              setup_warm * 1e-6, setup_speedup);

  // --- Version expansion: all cells x all versions. ------------------
  // Snapshot once from a fully warmed cache, then race a cold full
  // characterization against a disk restore (best of kRepeats each).
  {
    const ContextCache full(library);
    full.warm_all();
    full.save(cache_dir);
  }
  std::uint64_t lib_cold = ~0ull, lib_warm = ~0ull;
  for (int r = 0; r < kRepeats; ++r) {
    const ContextCache cold(library);
    const auto t0 = std::chrono::steady_clock::now();
    cold.warm_all();
    lib_cold = std::min(lib_cold, ns_of(t0));

    const ContextCache warm(library);
    const auto t1 = std::chrono::steady_clock::now();
    SVA_ASSERT(warm.try_load(cache_dir));
    lib_warm = std::min(lib_warm, ns_of(t1));
    SVA_ASSERT(warm.stats().disk_hits == cells * versions);
  }
  const double lib_speedup =
      static_cast<double>(lib_cold) / static_cast<double>(lib_warm);
  const auto file_size = std::filesystem::file_size(
      ContextCache(library).cache_file_path(cache_dir));
  std::printf("version expansion (%zu cells x %zu versions, %ju-byte "
              "file):\n",
              cells, versions, static_cast<std::uintmax_t>(file_size));
  std::printf("  cold characterize: %8.3f ms\n", lib_cold * 1e-6);
  std::printf("  warm restore:      %8.3f ms   (speedup %.1fx)\n\n",
              lib_warm * 1e-6, lib_speedup);

  // --- Per Table-2 circuit: full startup. ----------------------------
  // Cold: flow construction (full OPC) + characterizing the slots the
  // circuit's placement binds.  Warm: flow construction off the setup
  // snapshot + restoring that circuit's slot snapshot -- what consecutive
  // CLI runs of the same circuit actually pay.
  Table table({"Testcase", "Slots", "Cold ms", "Warm ms", "Speedup"});
  std::vector<std::string> rows_json;
  for (const std::string& name : kTable2Circuits) {
    const auto slots = touched_slots(flow, name);
    const std::string dir = cache_dir + "/" + name;
    {
      const ContextCache seed(library);
      time_fill(seed, slots, bins);
      seed.save(dir);
    }
    std::uint64_t cold_ns = ~0ull, warm_ns = ~0ull;
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const SvaFlow cold{FlowConfig{}};
      const std::uint64_t cold_total =
          ns_of(t0) + time_fill(cold.context_cache(), slots, bins);
      cold_ns = std::min(cold_ns, cold_total);

      const auto t1 = std::chrono::steady_clock::now();
      const SvaFlow warm{config_with_cache(cache_dir)};
      SVA_ASSERT(warm.context_cache().try_load(dir));
      const std::uint64_t warm_total =
          ns_of(t1) + time_fill(warm.context_cache(), slots, bins);
      warm_ns = std::min(warm_ns, warm_total);
      SVA_ASSERT(warm.setup_from_cache());
      if (r == 0)
        assert_identical(cold.context_cache(), warm.context_cache(), slots,
                         bins);
    }
    const double speedup =
        static_cast<double>(cold_ns) / static_cast<double>(warm_ns);
    table.add_row({name, std::to_string(slots.size()), fmt(cold_ns * 1e-6, 3),
                   fmt(warm_ns * 1e-6, 3), fmt(speedup, 1)});
    std::string row = "{\"bench\": \"";
    row += name;
    row += "\", \"slots\": ";
    row += std::to_string(slots.size());
    row += ", \"cold_ns\": ";
    row += std::to_string(cold_ns);
    row += ", \"warm_ns\": ";
    row += std::to_string(warm_ns);
    row += ", \"speedup\": ";
    row += fmt(speedup, 2);
    row += "}";
    rows_json.push_back(row);
  }
  std::printf("%s\n", table.render().c_str());

  // --- JSON artifact. ------------------------------------------------
  std::string json = "{\n  \"bench\": \"cache\",\n  \"cells\": ";
  json += std::to_string(cells);
  json += ",\n  \"versions_per_cell\": ";
  json += std::to_string(versions);
  json += ",\n  \"setup_cold_ns\": ";
  json += std::to_string(setup_cold);
  json += ",\n  \"setup_warm_ns\": ";
  json += std::to_string(setup_warm);
  json += ",\n  \"setup_speedup\": ";
  json += fmt(setup_speedup, 2);
  json += ",\n  \"slot_file_bytes\": ";
  json += std::to_string(static_cast<std::uintmax_t>(file_size));
  json += ",\n  \"expansion_cold_ns\": ";
  json += std::to_string(lib_cold);
  json += ",\n  \"expansion_warm_ns\": ";
  json += std::to_string(lib_warm);
  json += ",\n  \"expansion_speedup\": ";
  json += fmt(lib_speedup, 2);
  json += ",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows_json.size(); ++i) {
    json += "    ";
    json += rows_json[i];
    json += (i + 1 < rows_json.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  write_text_file("BENCH_cache.json", json);
  std::printf("wrote BENCH_cache.json\n");

  std::filesystem::remove_all(cache_dir);
  return 0;
}
