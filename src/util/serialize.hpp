// The flat-section serialization vocabulary shared by every persistent
// structure in the tree.
//
// A *section* is a named, contiguous run of bytes — a whole column, arena
// or index array, never a record-at-a-time encoding.  A structure that can
// persist itself exposes exactly two hooks:
//
//   void append_sections(util::Sections& out, const std::string& prefix) const;
//   static X from_sections(const util::SectionMap& in, const std::string& prefix);
//
// append_sections registers each flat buffer under "<prefix>.<field>"
// (borrowed views into live storage where possible, owned normalized
// buffers where the in-memory form is not flat); from_sections rebuilds the
// structure from the named spans, throwing util::SectionError on any
// inconsistency — a missing section, a byte length that does not divide by
// the element size, offsets that run backwards.  The hooks compose: a
// structure serializes its members by delegating with a longer prefix
// (LogStore and JobTable -> CsrIndex), so no class owns another's layout.
//
// Sections know nothing about files.  The container format — magic,
// format version, section table, checksums — lives in util/snapshot.hpp;
// anything else (a network frame, a test harness) can consume the same
// Sections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hpcfail::util {

/// Thrown by from_sections()-style loaders on a structurally inconsistent
/// section; the snapshot layer converts it into a structured SnapshotError
/// at the file boundary, so it never escapes to callers of load().
class SectionError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    Missing,    ///< a required section is absent from the snapshot
    Malformed,  ///< the section exists but its contents are inconsistent
  };

  SectionError(std::string section, const std::string& what,
               Kind kind = Kind::Malformed)
      : std::runtime_error("section '" + section + "': " + what),
        section_(std::move(section)),
        kind_(kind) {}

  [[nodiscard]] const std::string& section() const noexcept { return section_; }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  std::string section_;
  Kind kind_;
};

/// Writer-side collection of named flat byte runs.  Entries keep insertion
/// order — the section table of a written snapshot is deterministic.
/// Borrowed entries alias caller storage that must outlive the Sections;
/// owned entries are moved in and kept alive here (for buffers that had to
/// be normalized, e.g. a symbol arena flattened into one run).
class Sections {
 public:
  struct Entry {
    std::string name;
    std::span<const std::byte> bytes;  ///< into caller storage or owned_
    std::size_t owned_index;           ///< index into owned_, or npos
  };

  static constexpr std::size_t kNotOwned = static_cast<std::size_t>(-1);

  /// Registers a borrowed view; the caller's buffer must outlive this
  /// object (the usual case: a span over a live column or index array).
  void add(std::string name, std::span<const std::byte> bytes) {
    require_fresh(name);
    entries_.push_back(Entry{std::move(name), bytes, kNotOwned});
  }

  /// Registers and takes ownership of a normalized buffer.
  void add_owned(std::string name, std::vector<std::byte> bytes) {
    require_fresh(name);
    owned_.push_back(std::move(bytes));
    entries_.push_back(Entry{std::move(name), owned_.back(), owned_.size() - 1});
  }

  /// Borrowed view over a vector of trivially copyable elements.
  template <class T>
  void add_vector(std::string name, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    add(std::move(name), std::as_bytes(std::span<const T>(v)));
  }

  /// Owned copy of one trivially copyable value (meta/header sections).
  template <class T>
  void add_scalar(std::string name, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(sizeof(T));
    std::memcpy(bytes.data(), &value, sizeof(T));
    add_owned(std::move(name), std::move(bytes));
  }

  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  void require_fresh(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) throw SectionError(name, "registered twice");
    }
  }

  std::vector<Entry> entries_;
  // deque-like stability is not needed: entries_ re-resolve through
  // owned_index, and spans over moved vectors stay valid (the heap buffer
  // moves with the vector).
  std::vector<std::vector<std::byte>> owned_;
};

/// Reader-side view: section name -> bytes, all aliasing one loaded file
/// buffer owned by the caller (util::Snapshot keeps it alive).
class SectionMap {
 public:
  void add(std::string name, std::span<const std::byte> bytes) {
    entries_.push_back({std::move(name), bytes});
  }

  /// The named section's bytes, or nullptr when absent.
  [[nodiscard]] const std::span<const std::byte>* find(std::string_view name) const noexcept {
    for (const auto& e : entries_) {
      if (e.name == name) return &e.bytes;
    }
    return nullptr;
  }

  /// The named section's bytes; throws SectionError when absent.
  [[nodiscard]] std::span<const std::byte> require(std::string_view name) const {
    const auto* bytes = find(name);
    if (bytes == nullptr) {
      throw SectionError(std::string(name), "missing from snapshot",
                         SectionError::Kind::Missing);
    }
    return *bytes;
  }

  /// Rebuilds a vector of trivially copyable elements from the named
  /// section (one bulk memcpy); throws when the byte length does not
  /// divide by the element size.
  template <class T>
  [[nodiscard]] std::vector<T> vector_of(std::string_view name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = require(name);
    if (bytes.size() % sizeof(T) != 0) {
      throw SectionError(std::string(name),
                         "byte length " + std::to_string(bytes.size()) +
                             " is not a multiple of the element size " +
                             std::to_string(sizeof(T)));
    }
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  /// Reads one trivially copyable value; the section must be exactly
  /// sizeof(T) bytes.
  template <class T>
  [[nodiscard]] T scalar_of(std::string_view name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = require(name);
    if (bytes.size() != sizeof(T)) {
      throw SectionError(std::string(name),
                         "expected " + std::to_string(sizeof(T)) + " bytes, found " +
                             std::to_string(bytes.size()));
    }
    T out;
    std::memcpy(&out, bytes.data(), sizeof(T));
    return out;
  }

  struct Entry {
    std::string name;
    std::span<const std::byte> bytes;
  };

 private:
  std::vector<Entry> entries_;
};

}  // namespace hpcfail::util
