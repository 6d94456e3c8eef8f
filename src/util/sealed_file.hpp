#pragma once
// Sealed files: the one on-disk envelope of every persisted product --
// the setup snapshot, the context-cache slot snapshot and the ECO and
// batch journals of interrupted runs:
//
//   u32 magic "SVAK" | u32 version | str kind | u64 content hash |
//   str payload | u64 fnv1a64_words(payload)
//
// (little-endian, strings u64-length-prefixed; util/serialize.hpp).  The
// kind ("setup", "slots", "eco", "batch") keeps a file of one kind from
// being decoded as another; the content hash of the inputs it was written
// for refuses a file from a different library, netlist or config; the
// checksum turns a torn or corrupt payload -- even a flipped bit inside a
// double -- into SerializeError instead of plausible state.  Writes hold
// the target's FileLock and go through atomic temp+rename, so processes
// sharing a directory never tear each other's files.  Callers keep only
// their payload codec.

#include <cstdint>
#include <functional>
#include <string>

#include "util/serialize.hpp"

namespace sva {

/// Envelope magic "SVAK" (little-endian u32) + format version.
inline constexpr std::uint32_t kSealedMagic = 0x4b415653u;
inline constexpr std::uint32_t kSealedVersion = 1;

/// Seal `payload` and atomically write it to `path` (under the path's
/// FileLock).  Throws sva::Error on IO failure.
void write_sealed_file(const std::string& path, const std::string& kind,
                       std::uint64_t content_hash, const std::string& payload);

/// Read and unseal `path`.  Throws FileMissingError when absent and
/// SerializeError on a bad magic/version/checksum, a kind other than
/// `kind` or a content hash other than `content_hash`.  Returns the
/// payload bytes.
std::string read_sealed_file(const std::string& path, const std::string& kind,
                             std::uint64_t content_hash);

/// `dir/<prefix>_<16 hex digits of content_hash>.svac`: with the hash in
/// the name, snapshots of different inputs coexist in one directory.
std::string snapshot_path(const std::string& dir, const char* prefix,
                          std::uint64_t content_hash);

/// Names one snapshot kind reports the load policy under.
struct SnapshotReporting {
  const char* what;                ///< for messages, e.g. "setup snapshot"
  const char* component;           ///< diagnostics component
  const char* read_failed;         ///< diagnostic code
  const char* quarantined;         ///< diagnostic code
  const char* quarantine_counter;  ///< metric bumped per quarantine
  const char* load_failpoint;      ///< fired before validation
};

/// The one snapshot-load policy.  Reads `path` with retries, unseals it
/// and runs `decode` over the whole payload; `decode` parses into the
/// caller's local state and throws sva::Error on any mismatch.  The caller
/// commits that state only on true, so a bad file never leaves a slot or
/// product half-restored.
///   missing file              false; a silent cold start;
///   read fails after retries  false; `read_failed` warning, the file is
///                             left alone (the fault may be transport);
///   validation fails          false; the file is quarantined to
///                             `*.corrupt.<pid>.<n>`, `quarantined`
///                             warning, `quarantine_counter` bumped;
///   valid                     true; the file's mtime is refreshed (best
///                             effort), which cache GC reads as in use.
bool load_snapshot(const std::string& path, const std::string& kind,
                   std::uint64_t content_hash, const SnapshotReporting& how,
                   const std::function<void(ByteReader&)>& decode);

}  // namespace sva
