// Execution-engine tests: thread pool semantics, bit-exactness of the
// levelized parallel STA path, schedule-independence of the batch runner,
// and coherence of the memoized context cache under concurrent access.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/flow.hpp"
#include "engine/batch.hpp"
#include "engine/context_cache.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "place/context.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

/// Flow construction runs library OPC; share one instance across tests.
const SvaFlow& shared_flow() {
  static const SvaFlow* flow = new SvaFlow(FlowConfig{});
  return *flow;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 64, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPoolTest, ZeroThreadPoolRunsWorkOnWaiters) {
  ThreadPool pool(0);
  std::atomic<int> total{0};
  pool.parallel_for(0, 100, [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100);

  TaskGroup group(pool);
  for (int i = 0; i < 10; ++i)
    group.run([&] { total.fetch_add(1, std::memory_order_relaxed); });
  group.wait();  // drains the queue on this thread
  EXPECT_EQ(total.load(), 110);
  EXPECT_GE(pool.stats().executed, 10u);
}

TEST(ThreadPoolTest, TaskGroupPropagatesFirstException) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  for (int i = 0; i < 4; ++i)
    group.run([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(EngineStaTest, ParallelStaBitIdenticalToSerial) {
  const SvaFlow& flow = shared_flow();
  // C3540 has the widest levels; C880 covers the narrow-level inline path.
  for (const char* name : {"C880", "C3540"}) {
    const Netlist netlist = flow.make_benchmark(name);
    const Placement placement = flow.make_placement(netlist);
    const Sta sta(netlist, flow.characterized(), flow.config().sta);
    const auto nps = extract_nps(placement);
    const auto versions = assign_versions(nps, flow.config().bins);
    const SvaCornerScale wc(netlist, flow.context_library(), versions,
                            flow.config().budget, Corner::Worst,
                            flow.config().arc_policy, &nps,
                            &flow.context_cache());
    const StaResult serial = sta.run(wc);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      const StaResult parallel = sta.run_parallel(wc, pool);
      // Exact equality, not near-equality: the parallel schedule must not
      // change a single bit of the propagation.
      EXPECT_EQ(parallel.arrival_ps, serial.arrival_ps)
          << name << " @ " << threads << " threads";
      EXPECT_EQ(parallel.slew_ps, serial.slew_ps);
      EXPECT_EQ(parallel.from_net, serial.from_net);
      EXPECT_EQ(parallel.critical_delay_ps, serial.critical_delay_ps);
      EXPECT_EQ(parallel.critical_po_net, serial.critical_po_net);
      EXPECT_EQ(parallel.critical_path, serial.critical_path);
    }
  }
}

void expect_same_analysis(const CircuitAnalysis& a, const CircuitAnalysis& b,
                          const std::string& what) {
  EXPECT_EQ(a.name, b.name) << what;
  EXPECT_EQ(a.gate_count, b.gate_count) << what;
  EXPECT_EQ(a.trad_nom_ps, b.trad_nom_ps) << what;
  EXPECT_EQ(a.trad_bc_ps, b.trad_bc_ps) << what;
  EXPECT_EQ(a.trad_wc_ps, b.trad_wc_ps) << what;
  EXPECT_EQ(a.sva_nom_ps, b.sva_nom_ps) << what;
  EXPECT_EQ(a.sva_bc_ps, b.sva_bc_ps) << what;
  EXPECT_EQ(a.sva_wc_ps, b.sva_wc_ps) << what;
  EXPECT_EQ(a.arc_class_counts, b.arc_class_counts) << what;
}

TEST(EngineBatchTest, ResultsIndependentOfThreadCountAndSchedule) {
  const SvaFlow& flow = shared_flow();
  const std::vector<std::string> names = {"C432", "C880"};

  // Serial references through the plain analyze() path.
  std::vector<CircuitAnalysis> reference;
  for (const std::string& name : names) {
    const Netlist netlist = flow.make_benchmark(name);
    const Placement placement = flow.make_placement(netlist);
    reference.push_back(flow.analyze(netlist, placement));
  }

  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const BatchRunner runner(flow, pool);
    // Two runs per pool: the second sees a warm cache and a different
    // task interleaving; both must reproduce the serial result exactly.
    for (int round = 0; round < 2; ++round) {
      const BatchResult batch = runner.run_names(names);
      ASSERT_EQ(batch.analyses.size(), names.size());
      for (std::size_t i = 0; i < names.size(); ++i)
        expect_same_analysis(batch.analyses[i], reference[i],
                             names[i] + " @ " + std::to_string(threads) +
                                 " threads, round " + std::to_string(round));
    }
  }
}

TEST(ContextCacheTest, MatchesEagerExpansionUnderConcurrentAccess) {
  const SvaFlow& flow = shared_flow();
  const ContextLibrary& library = flow.context_library();
  const std::size_t cells = library.characterized().cells.size();
  const std::size_t versions = library.bins().version_count();
  const std::size_t bins = library.bins().count();

  // Eager expansion: every (cell, version, arc) scale straight from the
  // context library.
  std::vector<std::vector<std::vector<double>>> eager(cells);
  for (std::size_t ci = 0; ci < cells; ++ci) {
    const std::size_t arcs =
        library.characterized().cells[ci].master.arcs().size();
    eager[ci].resize(versions);
    for (std::size_t vi = 0; vi < versions; ++vi) {
      const VersionKey key = version_key(vi, bins);
      for (std::size_t ai = 0; ai < arcs; ++ai)
        eager[ci][vi].push_back(library.arc_delay_scale(ci, key, ai));
    }
  }

  // Fresh cache hammered from 4 threads, several passes over every slot,
  // so first touches race and later passes must hit.
  const ContextCache cache(library);
  ThreadPool pool(4);
  constexpr std::size_t kPasses = 4;
  pool.parallel_for(0, versions * kPasses, [&](std::size_t i) {
    const std::size_t vi = i % versions;
    const VersionKey key = version_key(vi, bins);
    for (std::size_t ci = 0; ci < cells; ++ci)
      for (std::size_t ai = 0; ai < eager[ci][vi].size(); ++ai)
        ASSERT_EQ(cache.arc_delay_scale(ci, key, ai), eager[ci][vi][ai]);
  });

  const ContextCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.capacity, cells * versions);
  // Every slot characterized exactly once, no matter how many threads
  // raced to it...
  EXPECT_EQ(stats.characterized, cells * versions);
  EXPECT_EQ(stats.misses, cells * versions);
  // ...and all remaining lookups were served from the memo.
  EXPECT_GT(stats.hits, stats.misses);
}

TEST(ContextCacheTest, FlowCacheIsSharedAcrossAnalyses) {
  const SvaFlow& flow = shared_flow();
  const ContextCache::Stats before = flow.context_cache().stats();
  ThreadPool pool(2);
  const BatchRunner runner(flow, pool);
  runner.run_names({"C432", "C432"});
  const ContextCache::Stats after = flow.context_cache().stats();
  EXPECT_GT(after.hits, before.hits);
  // The version universe is bounded: repeated analyses cannot add slots
  // beyond capacity.
  EXPECT_LE(after.characterized, after.capacity);
}

// ------------------------------------------------- persistent snapshot

/// Fresh per-test cache directory under the gtest temp dir.
std::string persist_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sva_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ContextCachePersistTest, SaveLoadRoundTripIsBitIdentical) {
  const ContextLibrary& library = shared_flow().context_library();
  const std::size_t bins = library.bins().count();
  const std::string dir = persist_dir("roundtrip");

  TimerStat& load_timer = MetricsRegistry::global().timer("context_cache.load");
  TimerStat& save_timer = MetricsRegistry::global().timer("context_cache.save");
  const std::uint64_t loads_before = load_timer.count();
  const std::uint64_t saves_before = save_timer.count();

  const ContextCache cold(library);
  cold.warm_all();
  const std::size_t saved = cold.save(dir);
  EXPECT_EQ(saved, cold.stats().capacity);

  const ContextCache warm(library);
  ASSERT_TRUE(warm.try_load(dir));
  const ContextCache::Stats stats = warm.stats();
  EXPECT_EQ(stats.disk_hits, stats.capacity);
  EXPECT_EQ(stats.disk_misses, 0u);
  EXPECT_EQ(stats.characterized, stats.capacity);
  // Restoring is not a (re)characterization miss.
  EXPECT_EQ(stats.misses, 0u);
  // One timer sample per call.
  EXPECT_EQ(load_timer.count(), loads_before + 1);
  EXPECT_EQ(save_timer.count(), saves_before + 1);

  // Every slot value and derived scale must match the cold cache exactly.
  const std::size_t cells = library.characterized().cells.size();
  for (std::size_t ci = 0; ci < cells; ++ci) {
    const std::size_t arcs =
        library.characterized().cells[ci].master.arcs().size();
    for (std::size_t vi = 0; vi < library.bins().version_count(); ++vi) {
      const VersionKey key = version_key(vi, bins);
      ASSERT_EQ(warm.version_lengths(ci, key), cold.version_lengths(ci, key));
      for (std::size_t ai = 0; ai < arcs; ++ai)
        ASSERT_EQ(warm.arc_delay_scale(ci, key, ai),
                  cold.arc_delay_scale(ci, key, ai));
    }
  }
}

TEST(ContextCachePersistTest, PartialSnapshotRestoresOnlyFilledSlots) {
  const ContextLibrary& library = shared_flow().context_library();
  const std::size_t bins = library.bins().count();
  const std::string dir = persist_dir("partial");

  const ContextCache partial(library);
  constexpr std::size_t kFilled = 5;
  for (std::size_t vi = 0; vi < kFilled; ++vi)
    partial.version_lengths(0, version_key(vi, bins));
  EXPECT_EQ(partial.save(dir), kFilled);

  const ContextCache warm(library);
  ASSERT_TRUE(warm.try_load(dir));
  EXPECT_EQ(warm.stats().disk_hits, kFilled);
  EXPECT_EQ(warm.stats().characterized, kFilled);

  // A restored slot is a hit; an unrestored one characterizes on demand.
  warm.version_lengths(0, version_key(0, bins));
  EXPECT_EQ(warm.stats().misses, 0u);
  warm.version_lengths(0, version_key(kFilled, bins));
  EXPECT_EQ(warm.stats().misses, 1u);
}

TEST(ContextCachePersistTest, LoadIntoWarmCacheKeepsComputedValues) {
  const ContextLibrary& library = shared_flow().context_library();
  const std::size_t bins = library.bins().count();
  const std::string dir = persist_dir("overlay");

  {
    const ContextCache seed(library);
    seed.warm_all();
    seed.save(dir);
  }
  const ContextCache cache(library);
  const std::vector<Nm> before =
      cache.version_lengths(0, version_key(0, bins));
  ASSERT_TRUE(cache.try_load(dir));
  // The already-computed slot was not overwritten (it was not a disk hit),
  // and its value is unchanged.
  EXPECT_EQ(cache.stats().disk_hits, cache.stats().capacity - 1);
  EXPECT_EQ(cache.version_lengths(0, version_key(0, bins)), before);
}

TEST(ContextCachePersistTest, RejectsMangledSnapshots) {
  const ContextLibrary& library = shared_flow().context_library();
  const std::size_t bins = library.bins().count();
  const std::string dir = persist_dir("mangle");

  const ContextCache seed(library);
  seed.warm_all();
  seed.save(dir);
  const std::string path = seed.cache_file_path(dir);
  const std::string good = read_file_bytes(path);

  const auto write_raw = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const auto flipped = [&](std::size_t offset) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x5a);
    return bad;
  };

  // Sealed-file offsets: u32 magic, u32 version, then the kind "slots"
  // behind its u64 length, the u64 content hash, the payload behind its
  // u64 length (grid shape first) and the trailing u64 checksum.
  const std::size_t kind_at = 16;
  const std::size_t hash_at = kind_at + 5;
  const std::size_t grid_at = hash_at + 8 + 8;
  struct Case {
    const char* what;
    std::string bytes;
  };
  const std::vector<Case> cases = {
      {"flipped magic", flipped(0)},
      {"flipped format version", flipped(4)},
      {"flipped kind", flipped(kind_at)},
      {"flipped content hash", flipped(hash_at)},
      {"flipped header grid", flipped(grid_at)},
      {"flipped payload byte", flipped(good.size() - 12)},
      {"flipped checksum", flipped(good.size() - 3)},
      {"truncated header", good.substr(0, 10)},
      {"truncated payload", good.substr(0, good.size() / 2)},
      {"empty file", std::string{}},
      {"garbage", std::string(200, '\x42')},
  };
  for (const Case& c : cases) {
    write_raw(c.bytes);
    const ContextCache cache(library);
    EXPECT_FALSE(cache.try_load(dir)) << c.what;
    const ContextCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.disk_hits, 0u) << c.what;
    EXPECT_EQ(stats.disk_misses, 1u) << c.what;
    // No slot was poisoned: a cold query still matches the library.
    EXPECT_EQ(stats.characterized, 0u) << c.what;
    EXPECT_EQ(cache.arc_effective_length(0, version_key(0, bins), 0),
              library.arc_effective_length(0, version_key(0, bins), 0))
        << c.what;
  }

  // The pristine bytes still load, so the rejections above were caused by
  // the mangling alone.
  write_raw(good);
  const ContextCache cache(library);
  EXPECT_TRUE(cache.try_load(dir));
}

TEST(ContextCachePersistTest, MissingSnapshotIsACleanColdStart) {
  const ContextLibrary& library = shared_flow().context_library();
  const ContextCache cache(library);
  EXPECT_FALSE(cache.try_load(persist_dir("missing")));
  EXPECT_EQ(cache.stats().disk_misses, 1u);
  EXPECT_EQ(cache.stats().characterized, 0u);
}

TEST(EngineOptionsTest, DefaultsWhenNoFlagsPresent) {
  std::vector<std::string> args = {"C432", "C880"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_EQ(opts.threads, ThreadPool::default_thread_count());
  EXPECT_FALSE(opts.metrics);
  EXPECT_FALSE(opts.no_cache);
  EXPECT_EQ(args, (std::vector<std::string>{"C432", "C880"}));
}

TEST(EngineOptionsTest, CacheFlagsParsed) {
  std::vector<std::string> args = {"C432", "--cache-dir", "/tmp/x",
                                   "--no-cache"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_EQ(opts.cache_dir, "/tmp/x");
  EXPECT_TRUE(opts.no_cache);
  EXPECT_FALSE(opts.cache_enabled());
  EXPECT_EQ(args, (std::vector<std::string>{"C432"}));
}

TEST(EngineOptionsTest, CacheEnabledByDefault) {
  std::vector<std::string> args = {"C432"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_FALSE(opts.no_cache);
  EXPECT_FALSE(opts.cache_dir.empty());
  EXPECT_TRUE(opts.cache_enabled());
}

TEST(EngineOptionsTest, StripsFlagsAnywhereInTheList) {
  std::vector<std::string> args = {"--metrics", "C432", "--threads", "7",
                                   "C880"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_EQ(opts.threads, 7u);
  EXPECT_TRUE(opts.metrics);
  EXPECT_EQ(args, (std::vector<std::string>{"C432", "C880"}));
}

TEST(EngineOptionsTest, ThreadsZeroIsAccepted) {
  std::vector<std::string> args = {"--threads", "0"};
  EXPECT_EQ(extract_engine_options(args).threads, 0u);
}

TEST(EngineOptionsTest, MissingValueThrowsUniformMessage) {
  std::vector<std::string> args = {"--threads"};
  try {
    extract_engine_options(args);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "--threads requires a value");
  }
}

TEST(EngineOptionsTest, MalformedValueThrowsUniformMessage) {
  for (const char* bad : {"abc", "3x", "-2", ""}) {
    std::vector<std::string> args = {"--threads", bad};
    try {
      extract_engine_options(args);
      FAIL() << "expected an exception for '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--threads expects a non-negative integer, "
                            "got '") +
                    bad + "'");
    }
  }
}

TEST(EngineOptionsTest, SizeFlagParserSharedBySubcommands) {
  EXPECT_EQ(parse_size_flag("--max-moves", "12"), 12u);
  EXPECT_THROW(parse_size_flag("--max-moves", "1.5"), std::runtime_error);
  EXPECT_THROW(parse_size_flag("-n", "-1"), std::runtime_error);
}

TEST(EngineOptionsTest, DoubleFlagParserSharedBySubcommands) {
  EXPECT_DOUBLE_EQ(parse_double_flag("--clock", "2.25"), 2.25);
  EXPECT_THROW(parse_double_flag("--clock", "0"), std::runtime_error);
  EXPECT_THROW(parse_double_flag("--clock", "-3"), std::runtime_error);
  EXPECT_THROW(parse_double_flag("--clock", "2ns"), std::runtime_error);
}

TEST(EngineOptionsTest, FlagValueAdvancesPastTheValue) {
  const std::vector<std::string> args = {"--clock", "2.0", "--metrics"};
  std::size_t i = 0;
  EXPECT_EQ(flag_value(args, i), "2.0");
  EXPECT_EQ(i, 1u);
}

}  // namespace
}  // namespace sva
