#include "util/snapshot.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/fault.hpp"

// The container writes native integers straight to disk and documents the
// file as little-endian; keep the two statements equivalent.
static_assert(std::endian::native == std::endian::little,
              "the hpcfail.store.v1 container writes native-endian integers "
              "and is specified little-endian");

namespace hpcfail::util {

namespace {

constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kTableEntryBytes = 64;
constexpr std::size_t kNameField = 40;  // kSnapshotMaxName + NUL
constexpr std::size_t kTrailerBytes = sizeof(std::uint32_t);

/// The read path's single injection point, hit at the bulk read and once
/// per section validated (a site has one call point; the sweep harness
/// checks that every armed site is hit from exactly one).
bool injected_read_failure() {
  return HPCFAIL_FAULT_SITE("store.snapshot.read_io");
}

// On-disk header, one 64-byte row.  Field-by-field writes below keep the
// padding deterministic (zeroed), so files are byte-reproducible.
//   [0,16)  magic          [16,20) version        [20,24) section_count
//   [24,32) file_bytes     [32,36) table_crc      [36,64) zero
//
// Table entry, one 64-byte row per section:
//   [0,40)  name (NUL-padded)   [40,48) offset   [48,56) length
//   [56,60) crc32               [60,64) zero

// The format's checksum is CRC-32C (Castagnoli, reflected polynomial
// 0x82f63b38) rather than the zlib CRC-32: same error-detection class, but
// x86-64 has carried a dedicated instruction for it since SSE4.2.
// Validation runs over every loaded megabyte twice (file CRC + section
// CRCs), so checksum speed directly bounds snapshot_load throughput; the
// hardware path below does ~8 bytes/cycle against ~1 byte/cycle for a
// byte-at-a-time table.  The slice-by-8 software path is the fallback and
// the source of truth for the polynomial.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82f63b38u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = tables[0][tables[k - 1][i] & 0xffu] ^ (tables[k - 1][i] >> 8);
    }
  }
  return tables;
}

std::uint32_t crc32c_soft(std::span<const std::byte> data, std::uint32_t crc) noexcept {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = make_crc_tables();
  const auto& t = tables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n != 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HPCFAIL_CRC32C_HW 1
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::byte> data, std::uint32_t crc) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n != 0; ++p, --n) {
    c32 = __builtin_ia32_crc32qi(c32, static_cast<std::uint8_t>(*p));
  }
  return c32;
}
#endif

std::size_t align_up(std::size_t n) {
  return (n + kSnapshotAlign - 1) & ~(kSnapshotAlign - 1);
}

void put_u32(std::byte* at, std::uint32_t v) { std::memcpy(at, &v, sizeof(v)); }
void put_u64(std::byte* at, std::uint64_t v) { std::memcpy(at, &v, sizeof(v)); }
std::uint32_t get_u32(const std::byte* at) {
  std::uint32_t v;
  std::memcpy(&v, at, sizeof(v));
  return v;
}
std::uint64_t get_u64(const std::byte* at) {
  std::uint64_t v;
  std::memcpy(&v, at, sizeof(v));
  return v;
}

SnapshotError make_error(SnapshotError::Kind kind, const std::string& path,
                         std::string section, std::string message) {
  SnapshotError err;
  err.kind = kind;
  err.path = path;
  err.section = std::move(section);
  err.message = std::move(message);
  return err;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) noexcept {
  const std::uint32_t crc = seed ^ 0xffffffffu;
#ifdef HPCFAIL_CRC32C_HW
  static const bool hw = __builtin_cpu_supports("sse4.2");
  if (hw) return crc32c_hw(data, crc) ^ 0xffffffffu;
#endif
  return crc32c_soft(data, crc) ^ 0xffffffffu;
}

std::string_view to_string(SnapshotError::Kind kind) noexcept {
  switch (kind) {
    case SnapshotError::Kind::Io: return "io";
    case SnapshotError::Kind::BadMagic: return "bad-magic";
    case SnapshotError::Kind::BadVersion: return "bad-version";
    case SnapshotError::Kind::Truncated: return "truncated";
    case SnapshotError::Kind::SectionChecksum: return "section-checksum";
    case SnapshotError::Kind::FileChecksum: return "file-checksum";
    case SnapshotError::Kind::MissingSection: return "missing-section";
    case SnapshotError::Kind::BadSection: return "bad-section";
  }
  return "unknown";
}

std::string SnapshotError::to_string() const {
  std::string out(util::to_string(kind));
  out += " error";
  if (!path.empty()) out += " in '" + path + "'";
  if (!section.empty()) out += ", section '" + section + "'";
  if (!message.empty()) out += ": " + message;
  return out;
}

std::optional<SnapshotError> write_snapshot(const std::string& path,
                                            const Sections& sections) {
  // Layout pass: payload offsets, per-section CRCs, total size.
  const std::size_t count = sections.size();
  std::vector<std::uint64_t> offsets(count);
  std::vector<std::uint32_t> crcs(count);
  std::size_t cursor = kHeaderBytes + count * kTableEntryBytes;
  for (std::size_t i = 0; i < count; ++i) {
    const Sections::Entry& e = sections.entries()[i];
    if (e.name.size() > kSnapshotMaxName) {
      return make_error(SnapshotError::Kind::BadSection, path, e.name,
                        "section name exceeds " + std::to_string(kSnapshotMaxName) +
                            " characters");
    }
    cursor = align_up(cursor);
    offsets[i] = cursor;
    crcs[i] = crc32(e.bytes);
    cursor += e.bytes.size();
  }
  const std::uint64_t file_bytes = cursor + kTrailerBytes;

  // Header + table in one zeroed buffer so padding bytes are deterministic.
  std::vector<std::byte> head(kHeaderBytes + count * kTableEntryBytes, std::byte{0});
  std::memcpy(head.data(), kSnapshotMagic, kSnapshotMagicSize);
  put_u32(head.data() + 16, kSnapshotFormatVersion);
  put_u32(head.data() + 20, static_cast<std::uint32_t>(count));
  put_u64(head.data() + 24, file_bytes);
  for (std::size_t i = 0; i < count; ++i) {
    const Sections::Entry& e = sections.entries()[i];
    std::byte* row = head.data() + kHeaderBytes + i * kTableEntryBytes;
    std::memcpy(row, e.name.data(), e.name.size());
    put_u64(row + 40, offsets[i]);
    put_u64(row + 48, e.bytes.size());
    put_u32(row + 56, crcs[i]);
  }
  const std::span<const std::byte> table_bytes(head.data() + kHeaderBytes,
                                               count * kTableEntryBytes);
  put_u32(head.data() + 32, crc32(table_bytes));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error(SnapshotError::Kind::Io, path, {}, "cannot open for writing");
  }
  const auto write_run = [&](std::span<const std::byte> bytes,
                             const std::string& section) -> std::optional<SnapshotError> {
    if (HPCFAIL_FAULT_SITE("store.snapshot.write_io")) out.setstate(std::ios::badbit);
    if (!bytes.empty()) {
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    } else {
      out.flush();  // surfaces an injected badbit even for empty sections
    }
    if (!out) {
      return make_error(SnapshotError::Kind::Io, path, section,
                        "write failed at byte offset " +
                            std::to_string(static_cast<long long>(out.tellp())));
    }
    return std::nullopt;
  };

  std::uint32_t running = crc32(head);
  if (auto err = write_run(head, {})) return err;
  static constexpr std::array<std::byte, kSnapshotAlign> kZeros{};
  std::size_t written = head.size();
  for (std::size_t i = 0; i < count; ++i) {
    const Sections::Entry& e = sections.entries()[i];
    const std::size_t pad = offsets[i] - written;
    const std::span<const std::byte> padding(kZeros.data(), pad);
    running = crc32(padding, running);
    running = crc32(e.bytes, running);
    out.write(reinterpret_cast<const char*>(kZeros.data()),
              static_cast<std::streamsize>(pad));
    if (auto err = write_run(e.bytes, e.name)) return err;
    written = offsets[i] + e.bytes.size();
  }

  std::array<std::byte, kTrailerBytes> trailer;
  put_u32(trailer.data(), running);
  if (auto err = write_run(trailer, {})) return err;
  out.flush();
  if (!out) {
    return make_error(SnapshotError::Kind::Io, path, {}, "flush failed");
  }
  return std::nullopt;
}

SnapshotReadResult read_snapshot(const std::string& path) {
  SnapshotReadResult result;
  const auto fail = [&](SnapshotError::Kind kind, std::string section,
                        std::string message) -> SnapshotReadResult {
    result.snapshot.reset();
    result.error = make_error(kind, path, std::move(section), std::move(message));
    return std::move(result);
  };

  std::error_code ec;
  const std::uintmax_t disk_size = std::filesystem::file_size(path, ec);
  if (ec) {
    return fail(SnapshotError::Kind::Io, {}, "cannot stat: " + ec.message());
  }
  if (disk_size < kHeaderBytes + kTrailerBytes) {
    return fail(SnapshotError::Kind::Truncated, {},
                "file is " + std::to_string(disk_size) +
                    " bytes, smaller than the fixed header and trailer");
  }

  Snapshot snap;
  const auto size = static_cast<std::size_t>(disk_size);
  snap.buffer_.reset(static_cast<std::byte*>(
      ::operator new[](size, std::align_val_t{kSnapshotAlign})));
  std::byte* data = snap.buffer_.get();

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return fail(SnapshotError::Kind::Io, {}, "cannot open for reading");
  }
  if (injected_read_failure()) in.setstate(std::ios::badbit);
  in.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(size));
  if (!in || static_cast<std::size_t>(in.gcount()) != size) {
    return fail(SnapshotError::Kind::Io, {},
                "bulk read returned " + std::to_string(in.gcount()) + " of " +
                    std::to_string(size) + " bytes");
  }

  if (std::memcmp(data, kSnapshotMagic, kSnapshotMagicSize) != 0) {
    return fail(SnapshotError::Kind::BadMagic, {},
                "first 16 bytes are not 'hpcfail.store.v1'");
  }
  // Version is judged before any checksum so a file from a future format
  // reports "bad-version", not a spurious checksum mismatch.
  snap.version_ = get_u32(data + 16);
  if (snap.version_ != kSnapshotFormatVersion) {
    return fail(SnapshotError::Kind::BadVersion, {},
                "format version " + std::to_string(snap.version_) +
                    "; this build reads version " +
                    std::to_string(kSnapshotFormatVersion));
  }
  const std::uint32_t count = get_u32(data + 20);
  snap.file_bytes_ = get_u64(data + 24);
  if (snap.file_bytes_ != size) {
    return fail(SnapshotError::Kind::Truncated, {},
                "header declares " + std::to_string(snap.file_bytes_) +
                    " bytes, file holds " + std::to_string(size));
  }
  const std::uint32_t stored_file_crc = get_u32(data + size - kTrailerBytes);
  const std::uint32_t actual_file_crc =
      crc32(std::span<const std::byte>(data, size - kTrailerBytes));
  if (stored_file_crc != actual_file_crc) {
    return fail(SnapshotError::Kind::FileChecksum, {}, "trailing file CRC mismatch");
  }

  const std::size_t table_end = kHeaderBytes + std::size_t{count} * kTableEntryBytes;
  if (table_end + kTrailerBytes > size) {
    return fail(SnapshotError::Kind::Truncated, {},
                "section table of " + std::to_string(count) +
                    " entries does not fit the file");
  }
  const std::span<const std::byte> table_bytes(data + kHeaderBytes,
                                               table_end - kHeaderBytes);
  if (get_u32(data + 32) != crc32(table_bytes)) {
    return fail(SnapshotError::Kind::SectionChecksum, "(section table)",
                "section table CRC mismatch");
  }

  std::uint64_t previous_end = table_end;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::byte* row = data + kHeaderBytes + std::size_t{i} * kTableEntryBytes;
    const char* name_field = reinterpret_cast<const char*>(row);
    const std::size_t name_len = ::strnlen(name_field, kNameField);
    if (name_len == 0 || name_len >= kNameField) {
      return fail(SnapshotError::Kind::BadSection, {},
                  "table entry " + std::to_string(i) +
                      " has an empty or unterminated name");
    }
    SnapshotSectionInfo info;
    info.name.assign(name_field, name_len);
    info.offset = get_u64(row + 40);
    info.length = get_u64(row + 48);
    info.crc = get_u32(row + 56);
    if (info.offset % kSnapshotAlign != 0 || info.offset < previous_end ||
        info.length > size - kTrailerBytes ||
        info.offset > size - kTrailerBytes - info.length) {
      return fail(SnapshotError::Kind::BadSection, info.name,
                  "payload extent [" + std::to_string(info.offset) + ", +" +
                      std::to_string(info.length) + ") is misaligned, overlapping "
                      "or out of bounds");
    }
    previous_end = info.offset + info.length;
    const std::span<const std::byte> payload(data + info.offset, info.length);
    if (injected_read_failure()) {
      return fail(SnapshotError::Kind::Io, info.name, "injected section read failure");
    }
    if (crc32(payload) != info.crc) {
      return fail(SnapshotError::Kind::SectionChecksum, info.name,
                  "payload CRC mismatch");
    }
    snap.map_.add(info.name, payload);
    snap.table_.push_back(std::move(info));
  }

  result.snapshot = std::move(snap);
  result.error.reset();
  return result;
}

}  // namespace hpcfail::util
