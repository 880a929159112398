// Compressed node-list notation as used by Slurm:
//   nid[00012-00015,00040,00100-00103]  or  node[0001-0004,0012]
// A single node renders without brackets (nid00042).  Scheduler log lines
// carry job allocations in this form; the parser expands them back.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "platform/ids.hpp"
#include "platform/topology.hpp"

namespace hpcfail::loggen {

/// Appends the compressed form of a node list (need not be sorted;
/// duplicates are dropped).  `naming` selects the nid/node prefix and digit
/// width.  The nodes are marked in `bits`, a scratch bitset reused across
/// calls and grown to (max - min) / 64 + 1 words, so no copy of the list
/// is sorted.
void append_node_list(std::string& out, std::span<const platform::NodeId> nodes,
                      platform::NamingScheme naming, std::vector<std::uint64_t>& bits);

/// Expands the compressed form. Returns nullopt on malformed input.
/// Validation against a topology (bounds) is the caller's business.
[[nodiscard]] std::optional<std::vector<platform::NodeId>> expand_node_list(
    std::string_view text) noexcept;

}  // namespace hpcfail::loggen
