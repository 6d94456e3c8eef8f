#pragma once
// Memoized, thread-safe view of the context library's version expansion,
// with an optional persistent on-disk snapshot.
//
// The paper's 81 context versions per cell (Sec. 3.1.2) are pure functions
// of (cell, version key), yet the flow re-derives every arc's effective
// length for every instance of every analysis.  This cache characterizes a
// (cell, version) slot exactly once -- lazily, on first demand, behind a
// per-slot lock-free Empty -> Busy -> Filled state machine -- and shares
// the result across all concurrent analyses.  Values are bit-identical to
// calling ContextLibrary directly: the slot computation *is* that call,
// memoized.
//
// Persistence: save() snapshots the filled slots into a single binary file
// keyed by the library's content hash (util/serialize.hpp codec; atomic
// temp-file + rename write), and try_load() restores them so a later
// process starts warm.  A loaded slot is bit-identical to a characterized
// one -- the file stores the exact doubles -- so warm runs reproduce cold
// results exactly.  try_load() validates the magic, format version,
// content hash, payload checksum, and every slot record before touching
// the cache; any mismatch, truncation, or corruption degrades to a cold
// start (returns false, file ignored), never a crash or a wrong number.
//
// Hit/miss and disk counters feed the "context_cache.*" metrics.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cell/context_library.hpp"
#include "util/metrics.hpp"

namespace sva {

class ContextCache {
 public:
  /// `library` must outlive the cache.
  explicit ContextCache(const ContextLibrary& library);

  const ContextLibrary& library() const { return *library_; }

  /// Per-arc effective gate lengths of one (cell, version), characterized
  /// on first use (arc order = master arc order).  Safe to call from any
  /// number of threads; exactly one of them performs the characterization.
  const std::vector<Nm>& version_lengths(std::size_t cell,
                                         const VersionKey& version) const;

  /// Memoized equivalents of the ContextLibrary queries.
  Nm arc_effective_length(std::size_t cell, const VersionKey& version,
                          std::size_t arc) const;
  double arc_delay_scale(std::size_t cell, const VersionKey& version,
                         std::size_t arc) const;

  /// Characterize every (cell, version) slot now.  Used by the cache
  /// bench to time the full characterization stage and by callers that
  /// want a complete snapshot to save.
  void warm_all() const;

  // ---- persistence -----------------------------------------------------

  /// Cache file this library maps to inside `dir` (the content hash is
  /// part of the name, so caches of different libraries coexist).
  std::string cache_file_path(const std::string& dir) const;

  /// Snapshot every currently filled slot to `dir` (created if missing)
  /// with an atomic write.  Returns the number of slots written.  Throws
  /// sva::Error on I/O failure.
  std::size_t save(const std::string& dir) const;

  /// Restore slots from a prior save() in `dir`.  Returns true and counts
  /// each restored slot as a disk hit on success; returns false -- after
  /// validating, without modifying any slot -- when the file is missing,
  /// truncated, corrupt, or keyed by a different content hash (reported
  /// via diagnostics, counted as a disk miss).  Transient read errors are
  /// retried with backoff before giving up; a file that fails validation
  /// is quarantined to `*.svac.corrupt` ("context_cache.quarantined"
  /// metric) so later runs cold-start cleanly instead of re-parsing it.
  /// Slots already filled in this process keep their computed values.
  bool try_load(const std::string& dir) const;

  struct Stats {
    std::uint64_t hits = 0;    ///< lookups served from a filled slot
    std::uint64_t misses = 0;  ///< lookups that performed characterization
    std::size_t characterized = 0;  ///< filled (cell, version) slots
    std::size_t capacity = 0;       ///< total slots = cells * versions
    std::uint64_t disk_hits = 0;    ///< slots restored from a cache file
    std::uint64_t disk_misses = 0;  ///< failed load attempts (cold starts)
    std::uint64_t load_ns = 0;      ///< wall time spent in try_load()
    std::uint64_t save_ns = 0;      ///< wall time spent in save()

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  /// Consistent snapshot: the counters are re-read until two consecutive
  /// passes agree, so a mid-run caller never sees e.g. a miss counted but
  /// its characterization not yet reflected elsewhere.
  Stats stats() const;

  static constexpr std::uint32_t kMagic = 0x43415653;  ///< "SVAC" (LE)
  static constexpr std::uint32_t kFormatVersion = 1;

 private:
  // Per-slot state machine.  Empty -> Busy is claimed with one CAS; the
  // winner writes `lengths` and publishes with a release store of Filled,
  // so a reader that acquire-loads Filled sees the complete vector.  This
  // replaces std::call_once: the bulk-restore path in try_load() fills
  // hundreds of slots back to back, and call_once's execution path is an
  // order of magnitude slower than a CAS.
  struct Slot {
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kBusy = 1;
    static constexpr std::uint8_t kFilled = 2;
    std::atomic<std::uint8_t> state{kEmpty};
    std::vector<Nm> lengths;  ///< valid once state is Filled
  };

  Slot& slot_at(std::size_t cell, std::size_t version_idx) const;
  /// Fill one slot with externally provided lengths (no-op if the slot is
  /// already filled); returns true if this call filled it.
  bool fill_slot(std::size_t cell, std::size_t version_idx,
                 std::vector<Nm>&& lengths) const;
  Stats read_stats_once() const;

  const ContextLibrary* library_;
  std::vector<Nm> drawn_length_;                 ///< per cell
  std::vector<std::unique_ptr<Slot[]>> slots_;   ///< [cell][version index]
  std::size_t versions_per_cell_ = 0;
  /// Global-registry counters resolved once at construction: the lookup
  /// takes the registry mutex, which the per-query hot path must not pay.
  Counter* metric_hits_;
  Counter* metric_misses_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::size_t> characterized_{0};
  mutable std::atomic<std::uint64_t> disk_hits_{0};
  mutable std::atomic<std::uint64_t> disk_misses_{0};
  mutable std::atomic<std::uint64_t> load_ns_{0};
  mutable std::atomic<std::uint64_t> save_ns_{0};
};

}  // namespace sva
