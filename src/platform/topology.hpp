// Machine topology: cabinets -> chassis -> blades (slots) -> nodes.
//
// The topology is a pure index structure; given the per-level arities and an
// optional node cap it maps between dense ids and physical cnames in O(1).
// All analysis-side spatial reasoning (blade/cabinet attribution, Fig 7,
// Fig 18) goes through this class rather than re-deriving geometry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "platform/cname.hpp"
#include "platform/ids.hpp"

namespace hpcfail::platform {

/// How nodes are named in raw logs.
enum class NamingScheme {
  CrayCname,  ///< nid##### in internal logs, cnames in controller logs
  Hostname,   ///< node#### everywhere (institutional cluster)
};

struct TopologyConfig {
  int cabinet_cols = 1;        ///< cabinets per row (cname X range)
  int cabinet_rows = 1;        ///< rows of cabinets (cname Y range)
  int chassis_per_cabinet = 3; ///< Cray XC: 3 chassis per cabinet
  int slots_per_chassis = 16;  ///< 16 blades per chassis
  int nodes_per_slot = 4;      ///< 4 nodes per blade
  /// Optional cap on total node count (a partially populated machine);
  /// 0 means fully populated.
  std::uint32_t max_nodes = 0;
  NamingScheme naming = NamingScheme::CrayCname;
};

class Topology {
 public:
  /// Default: one fully-populated Cray cabinet (192 nodes).
  Topology() : Topology(TopologyConfig{}) {}
  explicit Topology(const TopologyConfig& config);

  [[nodiscard]] const TopologyConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::uint32_t node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::uint32_t blade_count() const noexcept { return blade_count_; }
  [[nodiscard]] std::uint32_t chassis_count() const noexcept { return chassis_count_; }
  [[nodiscard]] std::uint32_t cabinet_count() const noexcept { return cabinet_count_; }
  /// Nodes on a full blade; blade b holds [b * nodes_per_blade(),
  /// min((b + 1) * nodes_per_blade(), node_count())).
  [[nodiscard]] std::uint32_t nodes_per_blade() const noexcept { return nodes_per_blade_; }

  [[nodiscard]] BladeId blade_of(NodeId n) const noexcept;
  [[nodiscard]] ChassisId chassis_of(BladeId b) const noexcept;
  [[nodiscard]] CabinetId cabinet_of(NodeId n) const noexcept;
  [[nodiscard]] CabinetId cabinet_of_blade(BladeId b) const noexcept;

  /// Nodes on a blade, clipped to node_count for a partial machine.
  [[nodiscard]] std::vector<NodeId> nodes_on_blade(BladeId b) const;

  [[nodiscard]] Cname cname_of(NodeId n) const noexcept;
  [[nodiscard]] Cname cname_of_blade(BladeId b) const noexcept;
  [[nodiscard]] Cname cname_of_cabinet(CabinetId c) const noexcept;

  [[nodiscard]] std::optional<NodeId> node_from_cname(const Cname& c) const noexcept;
  [[nodiscard]] std::optional<BladeId> blade_from_cname(const Cname& c) const noexcept;
  [[nodiscard]] std::optional<CabinetId> cabinet_from_cname(const Cname& c) const noexcept;

  /// Node hostname as it appears in internal logs (nid##### or node####).
  void append_node_name(std::string& out, NodeId n) const;
  [[nodiscard]] std::string node_name(NodeId n) const;

  /// Inverse of node_name; validates against node_count.
  [[nodiscard]] std::optional<NodeId> node_from_name(std::string_view name) const noexcept;

 private:
  TopologyConfig config_;
  std::uint32_t nodes_per_blade_;
  std::uint32_t blades_per_chassis_;
  std::uint32_t chassis_per_cabinet_;
  std::uint32_t node_count_;
  std::uint32_t blade_count_;
  std::uint32_t chassis_count_;
  std::uint32_t cabinet_count_;
};

}  // namespace hpcfail::platform
