#include "util/sealed_file.hpp"

#include <cstdio>
#include <filesystem>

#include "util/diagnostics.hpp"
#include "util/failpoint.hpp"
#include "util/filelock.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/retry.hpp"

namespace sva {
namespace {

std::string unseal(const std::string& bytes, const std::string& path,
                   const std::string& kind, std::uint64_t content_hash) {
  ByteReader r(bytes);
  if (r.u32() != kSealedMagic)
    throw SerializeError("'" + path + "' is not a sealed file (bad magic)");
  if (const std::uint32_t v = r.u32(); v != kSealedVersion)
    throw SerializeError("'" + path + "' has version " + std::to_string(v) +
                         ", expected " + std::to_string(kSealedVersion));
  const std::string file_kind = r.str();
  const std::uint64_t file_hash = r.u64();
  std::string payload = r.str();
  const std::uint64_t checksum = r.u64();
  r.expect_end();
  if (checksum != fnv1a64_words(payload.data(), payload.size()))
    throw SerializeError("'" + path + "' failed its checksum");
  if (file_kind != kind)
    throw SerializeError("'" + path + "' is a '" + file_kind +
                         "' file, expected '" + kind + "'");
  if (file_hash != content_hash)
    throw SerializeError("'" + path + "' was written for different inputs "
                         "(content hash mismatch)");
  return payload;
}

}  // namespace

void write_sealed_file(const std::string& path, const std::string& kind,
                       std::uint64_t content_hash,
                       const std::string& payload) {
  ByteWriter w;
  w.u32(kSealedMagic);
  w.u32(kSealedVersion);
  w.str(kind);
  w.u64(content_hash);
  w.str(payload);
  w.u64(fnv1a64_words(payload.data(), payload.size()));
  const FileLock lock = FileLock::acquire(path);
  atomic_write_file(path, w.bytes());
}

std::string read_sealed_file(const std::string& path, const std::string& kind,
                             std::uint64_t content_hash) {
  return unseal(read_file_bytes(path), path, kind, content_hash);
}

std::string snapshot_path(const std::string& dir, const char* prefix,
                          std::uint64_t content_hash) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s_%016llx.svac", prefix,
                static_cast<unsigned long long>(content_hash));
  return dir + "/" + name;
}

bool load_snapshot(const std::string& path, const std::string& kind,
                   std::uint64_t content_hash, const SnapshotReporting& how,
                   const std::function<void(ByteReader&)>& decode) {
  std::string bytes;
  try {
    // Transient read errors (including injected "serialize.read" faults)
    // retry with backoff; a retried-then-successful load is bit-identical
    // to an untroubled one.
    bytes = with_retry(how.what, RetryPolicy{},
                       [&] { return read_file_bytes(path); });
  } catch (const FileMissingError&) {
    log_debug(how.what, ": none at ", path);
    return false;
  } catch (const Error& e) {
    diag_warn(how.component, how.read_failed,
              std::string(how.what) + " read failed, cold start: " + e.what());
    return false;
  }

  try {
    SVA_FAILPOINT(how.load_failpoint);
    const std::string payload = unseal(bytes, path, kind, content_hash);
    ByteReader r(payload);
    decode(r);
    r.expect_end();
  } catch (const Error& e) {
    // Validation failed on bytes that were read: the file itself is bad.
    // Quarantine it so no later run re-parses it; the next one sees a
    // clean miss.
    quarantine_file(path);
    MetricsRegistry::global().counter(how.quarantine_counter).add();
    diag_warn(how.component, how.quarantined,
              std::string(how.what) + " " + path + " quarantined (" +
                  e.what() + "); cold start");
    return false;
  }

  // A loaded snapshot is in use: cache GC ages files by mtime.
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
  return true;
}

}  // namespace sva
