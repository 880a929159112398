// The `hpcfail.store.v1` on-disk container: a little-endian binary file
// holding the flat sections registered through util::Sections
// (serialize.hpp).  This layer owns only the *container* discipline —
// magic, format version, section table, per-section CRC32, trailing file
// CRC — and knows nothing about what the sections mean; LogStore, JobTable
// and the corpus-level snapshot compose their own section vocabularies on
// top.  The byte layout is specified in FORMATS.md ("snapshot —
// hpcfail.store.v1"); hpcfail-lint's snapshot-version check keeps the
// version constant below and that document in sync.
//
// Failure discipline matches the ingest layer: corruption and I/O failures
// surface as a structured SnapshotError (kind + path + section + message),
// never as an exception, a partial result, or UB.  Two deterministic fault
// sites cover the file boundary: `store.snapshot.write_io` (hit once per
// header/section write) and `store.snapshot.read_io` (hit at the bulk read
// and once per section validated), so torn and truncated snapshots are
// reproducible on demand (HPCFAIL_FAULT, `hpcfail store --fault`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/serialize.hpp"

namespace hpcfail::util {

/// First 16 bytes of every snapshot file (not NUL-terminated on disk).
inline constexpr char kSnapshotMagic[17] = "hpcfail.store.v1";
inline constexpr std::size_t kSnapshotMagicSize = 16;

/// Container format version, bumped on any layout change.  Must match the
/// "Format version" line in FORMATS.md (enforced by hpcfail-lint
/// --check snapshot-version).
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Section payloads start on this alignment so a loaded buffer supports
/// direct typed views over any section.
inline constexpr std::size_t kSnapshotAlign = 64;

/// Longest section name the fixed-width table entry can hold (39 chars +
/// NUL in a 40-byte field).
inline constexpr std::size_t kSnapshotMaxName = 39;

/// CRC-32C (Castagnoli, reflected polynomial 0x82f63b38) — the snapshot
/// format's checksum, chosen over the zlib CRC-32 because x86-64 executes
/// it in hardware (SSE4.2; runtime-dispatched with a slice-by-8 software
/// fallback).  `seed` chains incremental updates:
/// crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data,
                                  std::uint32_t seed = 0) noexcept;

/// Structured description of why a snapshot could not be written or read.
struct SnapshotError {
  enum class Kind : std::uint8_t {
    Io,               ///< open/read/write failed (errno-level, or injected)
    BadMagic,         ///< first 16 bytes are not kSnapshotMagic
    BadVersion,       ///< format version newer than this build understands
    Truncated,        ///< file shorter than its own accounting claims
    SectionChecksum,  ///< a section's stored CRC32 does not match its bytes
    FileChecksum,     ///< the trailing whole-file CRC32 does not match
    MissingSection,   ///< a structure's required section is absent
    BadSection,       ///< a section is internally inconsistent
  };

  Kind kind = Kind::Io;
  std::string path;
  std::string section;  ///< offending section name, when one is known
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] std::string_view to_string(SnapshotError::Kind kind) noexcept;

/// One row of a snapshot's section table, as stored on disk.
struct SnapshotSectionInfo {
  std::string name;
  std::uint64_t offset = 0;  ///< payload start, from file byte 0
  std::uint64_t length = 0;  ///< payload bytes (no padding)
  std::uint32_t crc = 0;     ///< CRC-32 of the payload bytes
};

/// Writes `sections` to `path` in hpcfail.store.v1 layout, replacing any
/// existing file.  Returns the error instead of a file on any failure; a
/// failed write never leaves a file that passes validation (the trailing
/// CRC is written last).
[[nodiscard]] std::optional<SnapshotError> write_snapshot(const std::string& path,
                                                          const Sections& sections);

struct SnapshotReadResult;

/// A fully validated snapshot held in one 64-byte-aligned buffer; the
/// SectionMap views alias that buffer, so keep the Snapshot alive while
/// consuming them.  Obtained via read_snapshot(); every accessor reflects
/// bytes that already passed magic/version/CRC/table validation.
class Snapshot {
 public:
  [[nodiscard]] const SectionMap& sections() const noexcept { return map_; }
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t file_bytes() const noexcept { return file_bytes_; }
  [[nodiscard]] const std::vector<SnapshotSectionInfo>& table() const noexcept {
    return table_;
  }

 private:
  friend SnapshotReadResult read_snapshot(const std::string& path);

  struct AlignedDelete {
    void operator()(std::byte* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kSnapshotAlign});
    }
  };

  std::unique_ptr<std::byte[], AlignedDelete> buffer_;
  SectionMap map_;
  std::vector<SnapshotSectionInfo> table_;
  std::uint32_t version_ = 0;
  std::uint64_t file_bytes_ = 0;
};

/// read_snapshot's result: exactly one of `snapshot` / `error` is set.
struct SnapshotReadResult {
  std::optional<Snapshot> snapshot;
  std::optional<SnapshotError> error;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Bulk-reads `path` into an aligned buffer and validates the container in
/// order: size floor, magic, format version (before any checksum, so a
/// future-version file is reported as BadVersion rather than a checksum
/// mismatch), declared vs actual length, trailing file CRC, section table,
/// per-section CRCs and extents.  On success the returned Snapshot's
/// sections alias the buffer — zero further copies.
[[nodiscard]] SnapshotReadResult read_snapshot(const std::string& path);

}  // namespace hpcfail::util
