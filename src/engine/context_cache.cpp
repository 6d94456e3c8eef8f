#include "engine/context_cache.hpp"

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/filelock.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/retry.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

std::uint64_t ns_since(const std::chrono::steady_clock::time_point& t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

ContextCache::ContextCache(const ContextLibrary& library)
    : library_(&library),
      versions_per_cell_(library.bins().version_count()),
      metric_hits_(&MetricsRegistry::global().counter("context_cache.hits")),
      metric_misses_(
          &MetricsRegistry::global().counter("context_cache.misses")) {
  const CharacterizedLibrary& chars = library.characterized();
  drawn_length_.reserve(chars.cells.size());
  slots_.reserve(chars.cells.size());
  for (const CharacterizedCell& cell : chars.cells) {
    drawn_length_.push_back(cell.master.tech().gate_length);
    slots_.push_back(std::make_unique<Slot[]>(versions_per_cell_));
  }
}

ContextCache::Slot& ContextCache::slot_at(std::size_t cell,
                                          std::size_t version_idx) const {
  return slots_[cell][version_idx];
}

const std::vector<Nm>& ContextCache::version_lengths(
    std::size_t cell, const VersionKey& version) const {
  SVA_REQUIRE(cell < slots_.size());
  const std::size_t vi = version_index(version, library_->bins().count());
  Slot& slot = slots_[cell][vi];
  for (;;) {
    const std::uint8_t s = slot.state.load(std::memory_order_acquire);
    if (s == Slot::kFilled) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      metric_hits_->add();
      return slot.lengths;
    }
    std::uint8_t expected = Slot::kEmpty;
    if (s == Slot::kEmpty &&
        slot.state.compare_exchange_strong(expected, Slot::kBusy,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      try {
        const CellMaster& master =
            library_->characterized().cells[cell].master;
        std::vector<Nm> lengths;
        lengths.reserve(master.arcs().size());
        for (std::size_t ai = 0; ai < master.arcs().size(); ++ai)
          lengths.push_back(
              library_->arc_effective_length(cell, version, ai));
        slot.lengths = std::move(lengths);
      } catch (...) {
        // Release the claim so another caller can retry.
        slot.state.store(Slot::kEmpty, std::memory_order_release);
        throw;
      }
      slot.state.store(Slot::kFilled, std::memory_order_release);
      misses_.fetch_add(1, std::memory_order_relaxed);
      characterized_.fetch_add(1, std::memory_order_relaxed);
      metric_misses_->add();
      return slot.lengths;
    }
    // Another thread holds the slot Busy; its characterization is short
    // (a few table lookups per arc), so yield rather than block.
    std::this_thread::yield();
  }
}

Nm ContextCache::arc_effective_length(std::size_t cell,
                                      const VersionKey& version,
                                      std::size_t arc) const {
  const std::vector<Nm>& lengths = version_lengths(cell, version);
  SVA_REQUIRE(arc < lengths.size());
  return lengths[arc];
}

double ContextCache::arc_delay_scale(std::size_t cell,
                                     const VersionKey& version,
                                     std::size_t arc) const {
  return arc_effective_length(cell, version, arc) / drawn_length_[cell];
}

void ContextCache::warm_all() const {
  const std::size_t bins = library_->bins().count();
  for (std::size_t ci = 0; ci < slots_.size(); ++ci)
    for (std::size_t vi = 0; vi < versions_per_cell_; ++vi)
      version_lengths(ci, version_key(vi, bins));
}

bool ContextCache::fill_slot(std::size_t cell, std::size_t version_idx,
                             std::vector<Nm>&& lengths) const {
  Slot& slot = slot_at(cell, version_idx);
  std::uint8_t expected = Slot::kEmpty;
  if (!slot.state.compare_exchange_strong(expected, Slot::kBusy,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
    // Already filled, or a concurrent characterization owns it -- which
    // will produce the same bit-identical values.
    return false;
  slot.lengths = std::move(lengths);
  slot.state.store(Slot::kFilled, std::memory_order_release);
  return true;
}

std::string ContextCache::cache_file_path(const std::string& dir) const {
  char name[64];
  std::snprintf(name, sizeof(name), "ctx_%016llx.svac",
                static_cast<unsigned long long>(library_->content_hash()));
  return dir + "/" + name;
}

std::size_t ContextCache::save(const std::string& dir) const {
  const auto t0 = std::chrono::steady_clock::now();
  SVA_FAILPOINT("context_cache.save");

  // Collect the filled slots first (the count precedes the records).  A
  // slot whose characterization is still in flight on another thread is
  // simply not snapshotted.
  ByteWriter records;
  std::size_t count = 0;
  for (std::size_t ci = 0; ci < slots_.size(); ++ci) {
    for (std::size_t vi = 0; vi < versions_per_cell_; ++vi) {
      const Slot& slot = slots_[ci][vi];
      if (slot.state.load(std::memory_order_acquire) != Slot::kFilled)
        continue;
      records.u64(ci);
      records.u64(vi);
      records.vec_f64(slot.lengths);
      ++count;
    }
  }

  ByteWriter file;
  file.u32(kMagic);
  file.u32(kFormatVersion);
  file.u64(library_->content_hash());
  file.u64(slots_.size());
  file.u64(versions_per_cell_);
  file.u64(count);
  // Checksum of the record block: any bit flipped in the payload -- even
  // inside a double, which no structural check can catch -- fails the
  // load instead of producing wrong numbers.
  file.u64(fnv1a64_words(records.bytes().data(), records.size()));
  // Single buffer: header followed by the record block, written under the
  // snapshot's advisory lock so concurrent processes sharing the cache dir
  // serialize their writes (see util/filelock.hpp).
  const FileLock lock = FileLock::acquire(cache_file_path(dir));
  atomic_write_file(cache_file_path(dir), file.bytes() + records.bytes());

  const std::uint64_t ns = ns_since(t0);
  save_ns_.fetch_add(ns, std::memory_order_relaxed);
  MetricsRegistry::global().counter("context_cache.save_ns").add(ns);
  log_debug("context cache: saved ", count, " slots to ",
            cache_file_path(dir));
  return count;
}

bool ContextCache::try_load(const std::string& dir) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string path = cache_file_path(dir);

  const auto count_cold_start = [&] {
    disk_misses_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("context_cache.disk_misses").add();
    const std::uint64_t ns = ns_since(t0);
    load_ns_.fetch_add(ns, std::memory_order_relaxed);
    MetricsRegistry::global().counter("context_cache.load_ns").add(ns);
  };

  std::string bytes;
  try {
    // Transient read errors (including injected "serialize.read" faults)
    // retry with backoff; a retried-then-successful load is bit-identical
    // to an untroubled one.
    bytes = with_retry("context cache read", RetryPolicy{},
                       [&] { return read_file_bytes(path); });
  } catch (const FileMissingError&) {
    // No snapshot yet: the normal first run, not worth a warning.
    count_cold_start();
    log_debug("context cache: no snapshot at ", path);
    return false;
  } catch (const Error& e) {
    // Read failed even after retries.  The file content may still be fine
    // (the fault was in the transport), so do not quarantine.
    count_cold_start();
    diag_warn("context_cache", "cache_read_failed",
              std::string("cold start: ") + e.what());
    return false;
  }

  // Parse and validate the whole file before touching a single slot, so a
  // corrupt tail can never leave the cache partially poisoned.
  std::vector<std::pair<std::size_t, std::size_t>> keys;
  std::vector<std::vector<Nm>> lengths;
  try {
    SVA_FAILPOINT("context_cache.load");
    ByteReader r(bytes);
    if (r.u32() != kMagic) throw SerializeError("bad magic");
    if (r.u32() != kFormatVersion)
      throw SerializeError("unsupported format version");
    if (r.u64() != library_->content_hash())
      throw SerializeError("content hash mismatch (stale cache)");
    if (r.u64() != slots_.size() || r.u64() != versions_per_cell_)
      throw SerializeError("slot grid mismatch");
    const std::uint64_t count = r.u64();
    const std::uint64_t payload_hash = r.u64();
    if (fnv1a64_words(bytes.data() + (bytes.size() - r.remaining()),
                      r.remaining()) != payload_hash)
      throw SerializeError("payload checksum mismatch");
    // A record is at least cell + version + length count = 24 bytes, so a
    // corrupt count cannot force a huge reserve.
    if (count > r.remaining() / 24)
      throw SerializeError("corrupt slot count " + std::to_string(count));
    keys.reserve(static_cast<std::size_t>(count));
    lengths.reserve(static_cast<std::size_t>(count));
    const CharacterizedLibrary& chars = library_->characterized();
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t ci = r.u64();
      const std::uint64_t vi = r.u64();
      if (ci >= slots_.size() || vi >= versions_per_cell_)
        throw SerializeError("slot index out of range");
      std::vector<Nm> arc_lengths = r.vec_f64();
      if (arc_lengths.size() !=
          chars.cells[static_cast<std::size_t>(ci)].master.arcs().size())
        throw SerializeError("arc count mismatch");
      keys.emplace_back(static_cast<std::size_t>(ci),
                        static_cast<std::size_t>(vi));
      lengths.push_back(std::move(arc_lengths));
    }
    r.expect_end();
  } catch (const Error& e) {
    // Validation failed on bytes we did read: the snapshot itself is bad.
    // Quarantine it so no later run wastes time re-parsing a file known
    // corrupt; the next run cold-starts cleanly on FileMissingError.
    count_cold_start();
    quarantine_file(path);
    MetricsRegistry::global().counter("context_cache.quarantined").add();
    diag_warn("context_cache", "cache_quarantined",
              "snapshot " + path + " quarantined (" + e.what() +
                  "); cold start");
    return false;
  }

  std::uint64_t restored = 0;
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (fill_slot(keys[i].first, keys[i].second, std::move(lengths[i])))
      ++restored;
  disk_hits_.fetch_add(restored, std::memory_order_relaxed);
  characterized_.fetch_add(static_cast<std::size_t>(restored),
                           std::memory_order_relaxed);
  MetricsRegistry::global().counter("context_cache.disk_hits").add(restored);
  const std::uint64_t ns = ns_since(t0);
  load_ns_.fetch_add(ns, std::memory_order_relaxed);
  MetricsRegistry::global().counter("context_cache.load_ns").add(ns);
  log_debug("context cache: restored ", restored, " of ", keys.size(),
            " slots from ", path);
  return true;
}

ContextCache::Stats ContextCache::read_stats_once() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_acquire);
  s.misses = misses_.load(std::memory_order_acquire);
  s.characterized = characterized_.load(std::memory_order_acquire);
  s.capacity = slots_.size() * versions_per_cell_;
  s.disk_hits = disk_hits_.load(std::memory_order_acquire);
  s.disk_misses = disk_misses_.load(std::memory_order_acquire);
  s.load_ns = load_ns_.load(std::memory_order_acquire);
  s.save_ns = save_ns_.load(std::memory_order_acquire);
  return s;
}

ContextCache::Stats ContextCache::stats() const {
  // Retry until two consecutive passes over every counter agree: the
  // returned snapshot is one consistent read, never a mix of pre- and
  // post-update values from a concurrent characterization.
  Stats prev = read_stats_once();
  for (;;) {
    const Stats next = read_stats_once();
    if (next == prev) return next;
    prev = next;
  }
}

}  // namespace sva
