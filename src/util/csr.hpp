// Compressed-sparse-row index: one flat `entries` array holding runs of
// values grouped by a dense uint32 key, with `offsets[k] .. offsets[k+1]`
// delimiting key k's run.  For id-keyed secondary indexes (ids come from
// real machine topologies, so the key space is small and dense) this
// replaces a hash map of per-key vectors with two exact-sized allocations:
// lookups are one bounds check + two loads, and there is no per-key heap
// block or growth slack.
//
// Building is the caller's job (count into offsets[key + 1], prefix-sum,
// then fill entries through a cursor copy of offsets) because callers fuse
// the counting passes of several indexes; see LogStore::build and the
// JobTable constructor.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/serialize.hpp"

namespace hpcfail::util {

template <class T>
struct CsrIndex {
  std::vector<std::uint32_t> offsets;  ///< size max_key + 2; empty when no entries
  std::vector<T> entries;              ///< values grouped by key

  /// The run for `key`; empty for keys never filled (including keys past
  /// the built range, so no caller needs to pre-check bounds).
  [[nodiscard]] std::span<const T> of(std::uint32_t key) const noexcept {
    if (key + 1 >= offsets.size()) return {};
    return std::span<const T>(entries).subspan(offsets[key],
                                               offsets[key + 1] - offsets[key]);
  }

  /// Registers the two flat arrays as "<prefix>.offsets" / "<prefix>.entries"
  /// (borrowed views — this index must outlive `out`).
  void append_sections(Sections& out, const std::string& prefix) const {
    static_assert(std::is_trivially_copyable_v<T>);
    out.add_vector(prefix + ".offsets", offsets);
    out.add_vector(prefix + ".entries", entries);
  }

  /// Rebuilds an index from its two sections, validating the CSR invariants
  /// (monotone offsets spanning exactly the entry array) so a corrupted
  /// snapshot can never produce an index that reads out of bounds.  Throws
  /// SectionError; the snapshot layer converts at the load boundary.
  [[nodiscard]] static CsrIndex from_sections(const SectionMap& in,
                                              const std::string& prefix) {
    CsrIndex index;
    index.offsets = in.vector_of<std::uint32_t>(prefix + ".offsets");
    index.entries = in.vector_of<T>(prefix + ".entries");
    if (index.offsets.empty()) {
      if (!index.entries.empty()) {
        throw SectionError(prefix + ".offsets", "empty offsets with non-empty entries");
      }
      return index;
    }
    if (index.offsets.front() != 0 ||
        index.offsets.back() != index.entries.size()) {
      throw SectionError(prefix + ".offsets",
                         "offsets do not span the entry array exactly");
    }
    for (std::size_t k = 1; k < index.offsets.size(); ++k) {
      if (index.offsets[k] < index.offsets[k - 1]) {
        throw SectionError(prefix + ".offsets",
                           "offsets decrease at key " + std::to_string(k - 1));
      }
    }
    return index;
  }
};

}  // namespace hpcfail::util
