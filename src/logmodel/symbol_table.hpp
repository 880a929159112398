// String interning for low-cardinality record payloads (module names,
// sensor labels, reason texts).  A SymbolTable maps each distinct string to
// a dense uint32 Symbol and stores exactly one copy of the bytes in an
// arena whose storage never moves, so resolved string_views stay valid for
// the table's lifetime.  Records carry the 4-byte Symbol instead of a
// heap-allocated std::string, which makes LogRecord trivially copyable and
// removes the per-record allocation from the ingest hot path.
//
// Lifetime rules: a string_view returned by view() is valid while the table
// (or a table it was moved into) lives.  A LogStore's storage owns the
// table for all records it holds; resolve details through the store, not
// through a builder-side table that may have been consumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/serialize.hpp"

namespace hpcfail::logmodel {

/// Dense handle for an interned string.  Value-initialized Symbol{} is the
/// empty string in every table (id 0 is reserved for "" at construction).
struct Symbol {
  std::uint32_t id = 0;

  friend bool operator==(Symbol, Symbol) = default;
};

class SymbolTable {
 public:
  /// Interns "" as id 0 so default-constructed Symbols resolve cleanly.
  SymbolTable();

  /// Deep copy: re-interns every string in id order, so ids are preserved
  /// but the copy owns its own arena.
  SymbolTable(const SymbolTable& other);
  SymbolTable& operator=(const SymbolTable& other);

  /// A copy of `other`'s first `n` strings under the same ids, with room
  /// for `capacity` strings before views() moves.  Reads only those `n`
  /// entries of `other`, which may meanwhile intern within its capacity()
  /// on another thread.
  SymbolTable(const SymbolTable& other, std::size_t n, std::size_t capacity);

  // Moves keep arena blocks (and the views into them) stable.
  SymbolTable(SymbolTable&&) noexcept = default;
  SymbolTable& operator=(SymbolTable&&) noexcept = default;

  /// Returns the Symbol for `text`, interning a copy on first sight.
  Symbol intern(std::string_view text);

  /// Resolves a Symbol; out-of-range ids resolve to "" rather than UB so a
  /// Symbol from a foreign table cannot read out of bounds.
  [[nodiscard]] std::string_view view(Symbol symbol) const noexcept {
    return symbol.id < views_.size() ? views_[symbol.id] : std::string_view{};
  }

  /// Number of distinct strings, including the reserved "".
  [[nodiscard]] std::size_t size() const noexcept { return views_.size(); }

  /// Total interned payload bytes (excludes map/arena overhead).
  [[nodiscard]] std::size_t bytes() const noexcept { return payload_bytes_; }

  /// Strings the table holds before an intern moves views().
  [[nodiscard]] std::size_t capacity() const noexcept {
    return std::min(views_.capacity(), hashes_.capacity());
  }

  /// Every string, by id.  The array moves only when an intern grows the
  /// table past capacity(), and an entry, once written, never changes.
  [[nodiscard]] std::span<const std::string_view> views() const noexcept { return views_; }

  /// Interns every string of `src` into this table and returns the id
  /// remap: remap[old.id] is the Symbol in this table.  Used when merging
  /// per-chunk tables into the builder's table.
  std::vector<Symbol> absorb(const SymbolTable& src);

  /// Registers the table as two flat sections: "<prefix>.bytes" (every
  /// string's payload concatenated in id order, owned by `out`) and
  /// "<prefix>.offsets" (uint64[size + 1] delimiting each string).
  void append_sections(util::Sections& out, const std::string& prefix) const {
    append_sections(views_, out, prefix);
  }

  /// The same two sections for the strings `views`, id by id (a table's
  /// first views.size() ids).
  static void append_sections(std::span<const std::string_view> views, util::Sections& out,
                              const std::string& prefix);

  /// Rebuilds a table by re-interning the serialized strings in id order,
  /// so ids are preserved exactly.  Throws util::SectionError when the
  /// offsets are inconsistent, string 0 is not "", or a duplicate string
  /// would shift later ids.
  [[nodiscard]] static SymbolTable from_sections(const util::SectionMap& in,
                                                 const std::string& prefix);

 private:
  const char* arena_store(std::string_view text);

  /// 8-bytes-at-a-time xor-multiply hash.  intern() is called once per
  /// record on the ingest hot path, so the hash must not walk the string
  /// byte by byte the way std::hash does.
  [[nodiscard]] static std::uint64_t hash_bytes(std::string_view text) noexcept;

  /// Probe/insert with a precomputed hash — lets absorb() and the copy
  /// constructor reuse the hashes the source table already paid for.
  Symbol intern_hashed(std::string_view text, std::uint64_t hash);

  /// Rebuilds the probe table with `slots` slots (a power of two).
  void rehash(std::size_t slots);

  static constexpr std::size_t kBlockBytes = 64 * 1024;

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t block_used_ = 0;   ///< bytes used in blocks_.back()
  std::size_t payload_bytes_ = 0;
  std::vector<std::string_view> views_;  ///< id -> stable view
  std::vector<std::uint64_t> hashes_;    ///< id -> hash_bytes(view)
  /// Open-addressing id index: power-of-two linear-probe table holding
  /// id + 1 (0 marks an empty slot).  Flat arrays beat the node-based
  /// unordered_map here: no per-string node allocation and no bucket
  /// pointer chase on the per-record lookup.
  std::vector<std::uint32_t> slots_;
};

}  // namespace hpcfail::logmodel
