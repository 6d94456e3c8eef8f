#include "engine/context_cache.hpp"

#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/sealed_file.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

/// Sealed-file kind of the slot snapshot.
constexpr char kSlotsKind[] = "slots";

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
  Slot& slot = slots_[cell][version_idx];
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
  return snapshot_path(dir, "ctx", library_->content_hash());
}

std::size_t ContextCache::save(const std::string& dir) const {
  const ScopedTimer timer(MetricsRegistry::global().timer("context_cache.save"));
  SVA_FAILPOINT("context_cache.save");
  const std::string path = cache_file_path(dir);
  {
    const std::lock_guard<std::mutex> lock(synced_mu_);
    if (path == synced_path_ &&
        characterized_.load(std::memory_order_acquire) == synced_slots_)
      return synced_slots_;
  }

  // Payload: the slot grid shape, then one record per filled slot up to
  // the end.  A slot whose characterization is still in flight on another
  // thread is simply not snapshotted.
  ByteWriter payload;
  payload.u64(slots_.size());
  payload.u64(versions_per_cell_);
  std::size_t count = 0;
  for (std::size_t ci = 0; ci < slots_.size(); ++ci) {
    for (std::size_t vi = 0; vi < versions_per_cell_; ++vi) {
      const Slot& slot = slots_[ci][vi];
      if (slot.state.load(std::memory_order_acquire) != Slot::kFilled)
        continue;
      payload.u64(ci);
      payload.u64(vi);
      payload.vec_f64(slot.lengths);
      ++count;
    }
  }
  write_sealed_file(path, kSlotsKind, library_->content_hash(),
                    payload.bytes());
  log_debug("context cache: saved ", count, " slots to ", path);
  return count;
}

bool ContextCache::try_load(const std::string& dir) const {
  static constexpr SnapshotReporting kReporting = {
      "context cache snapshot", "context_cache", "cache_read_failed",
      "cache_quarantined", "context_cache.quarantined", "context_cache.load"};
  const ScopedTimer timer(MetricsRegistry::global().timer("context_cache.load"));
  const std::string path = cache_file_path(dir);
  const std::lock_guard<std::mutex> lock(synced_mu_);
  synced_path_.clear();

  struct Record {
    std::size_t cell, version;
    std::vector<Nm> lengths;
  };
  std::vector<Record> records;
  const auto decode = [&](ByteReader& r) {
    if (r.u64() != slots_.size() || r.u64() != versions_per_cell_)
      throw SerializeError("slot grid mismatch");
    const CharacterizedLibrary& chars = library_->characterized();
    while (!r.at_end()) {
      Record rec{static_cast<std::size_t>(r.u64()),
                 static_cast<std::size_t>(r.u64()), {}};
      if (rec.cell >= slots_.size() || rec.version >= versions_per_cell_)
        throw SerializeError("slot index out of range");
      rec.lengths = r.vec_f64();
      if (rec.lengths.size() != chars.cells[rec.cell].master.arcs().size())
        throw SerializeError("arc count mismatch");
      records.push_back(std::move(rec));
    }
  };
  if (!load_snapshot(path, kSlotsKind, library_->content_hash(), kReporting,
                     decode)) {
    disk_misses_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("context_cache.disk_misses").add();
    return false;
  }

  std::size_t restored = 0;
  for (Record& rec : records)
    if (fill_slot(rec.cell, rec.version, std::move(rec.lengths))) ++restored;
  disk_hits_.fetch_add(restored, std::memory_order_relaxed);
  const std::size_t filled =
      characterized_.fetch_add(restored, std::memory_order_acq_rel) + restored;
  MetricsRegistry::global().counter("context_cache.disk_hits").add(restored);
  // Every filled slot came from this file (and every record was restored):
  // a save() before the next characterization would rewrite these bytes.
  if (restored == records.size() && filled == restored) {
    synced_path_ = path;
    synced_slots_ = restored;
  }
  log_debug("context cache: restored ", restored, " of ", records.size(),
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
