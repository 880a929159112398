#include "platform/topology.hpp"

#include <stdexcept>

namespace hpcfail::platform {

Topology::Topology(const TopologyConfig& config)
    : config_(config),
      nodes_per_blade_(static_cast<std::uint32_t>(config.nodes_per_slot)),
      blades_per_chassis_(static_cast<std::uint32_t>(config.slots_per_chassis)),
      chassis_per_cabinet_(static_cast<std::uint32_t>(config.chassis_per_cabinet)) {
  if (config.cabinet_cols <= 0 || config.cabinet_rows <= 0 ||
      config.chassis_per_cabinet <= 0 || config.slots_per_chassis <= 0 ||
      config.nodes_per_slot <= 0) {
    throw std::invalid_argument("Topology: all arities must be positive");
  }
  cabinet_count_ =
      static_cast<std::uint32_t>(config.cabinet_cols) * static_cast<std::uint32_t>(config.cabinet_rows);
  chassis_count_ = cabinet_count_ * chassis_per_cabinet_;
  const std::uint32_t full_blades = chassis_count_ * blades_per_chassis_;
  const std::uint32_t full_nodes = full_blades * nodes_per_blade_;
  node_count_ = (config.max_nodes == 0) ? full_nodes : std::min(config.max_nodes, full_nodes);
  // Number of blades actually touched by the populated nodes.
  blade_count_ = (node_count_ + nodes_per_blade_ - 1) / nodes_per_blade_;
}

BladeId Topology::blade_of(NodeId n) const noexcept {
  if (!n.valid() || n.value >= node_count_) return BladeId{};
  return BladeId{n.value / nodes_per_blade_};
}

ChassisId Topology::chassis_of(BladeId b) const noexcept {
  if (!b.valid() || b.value >= blade_count_) return ChassisId{};
  return ChassisId{b.value / blades_per_chassis_};
}

CabinetId Topology::cabinet_of(NodeId n) const noexcept {
  return cabinet_of_blade(blade_of(n));
}

CabinetId Topology::cabinet_of_blade(BladeId b) const noexcept {
  const ChassisId ch = chassis_of(b);
  if (!ch.valid()) return CabinetId{};
  return CabinetId{ch.value / chassis_per_cabinet_};
}

std::vector<NodeId> Topology::nodes_on_blade(BladeId b) const {
  std::vector<NodeId> out;
  if (!b.valid() || b.value >= blade_count_) return out;
  const std::uint32_t first = b.value * nodes_per_blade_;
  for (std::uint32_t i = 0; i < nodes_per_blade_ && first + i < node_count_; ++i) {
    out.push_back(NodeId{first + i});
  }
  return out;
}

Cname Topology::cname_of(NodeId n) const noexcept {
  Cname c = cname_of_blade(blade_of(n));
  if (n.valid() && n.value < node_count_) {
    c.node = static_cast<int>(n.value % nodes_per_blade_);
  }
  return c;
}

Cname Topology::cname_of_blade(BladeId b) const noexcept {
  Cname c;
  if (!b.valid() || b.value >= blade_count_) return c;
  const std::uint32_t chassis_global = b.value / blades_per_chassis_;
  const std::uint32_t cabinet = chassis_global / chassis_per_cabinet_;
  c.slot = static_cast<int>(b.value % blades_per_chassis_);
  c.chassis = static_cast<int>(chassis_global % chassis_per_cabinet_);
  c.cab_x = static_cast<int>(cabinet % static_cast<std::uint32_t>(config_.cabinet_cols));
  c.cab_y = static_cast<int>(cabinet / static_cast<std::uint32_t>(config_.cabinet_cols));
  return c;
}

Cname Topology::cname_of_cabinet(CabinetId cab) const noexcept {
  Cname c;
  if (!cab.valid() || cab.value >= cabinet_count_) return c;
  c.cab_x = static_cast<int>(cab.value % static_cast<std::uint32_t>(config_.cabinet_cols));
  c.cab_y = static_cast<int>(cab.value / static_cast<std::uint32_t>(config_.cabinet_cols));
  return c;
}

std::optional<NodeId> Topology::node_from_cname(const Cname& c) const noexcept {
  if (c.level() != CnameLevel::Node) return std::nullopt;
  const auto blade = blade_from_cname(c.truncated(CnameLevel::Blade));
  if (!blade) return std::nullopt;
  if (c.node < 0 || c.node >= config_.nodes_per_slot) return std::nullopt;
  const std::uint32_t idx = blade->value * nodes_per_blade_ + static_cast<std::uint32_t>(c.node);
  if (idx >= node_count_) return std::nullopt;
  return NodeId{idx};
}

std::optional<BladeId> Topology::blade_from_cname(const Cname& c) const noexcept {
  if (c.level() != CnameLevel::Blade && c.level() != CnameLevel::Node) return std::nullopt;
  if (c.cab_x < 0 || c.cab_x >= config_.cabinet_cols || c.cab_y < 0 ||
      c.cab_y >= config_.cabinet_rows || c.chassis < 0 ||
      c.chassis >= config_.chassis_per_cabinet || c.slot < 0 ||
      c.slot >= config_.slots_per_chassis) {
    return std::nullopt;
  }
  const std::uint32_t cabinet = static_cast<std::uint32_t>(c.cab_y) *
                                    static_cast<std::uint32_t>(config_.cabinet_cols) +
                                static_cast<std::uint32_t>(c.cab_x);
  const std::uint32_t chassis_global =
      cabinet * chassis_per_cabinet_ + static_cast<std::uint32_t>(c.chassis);
  const std::uint32_t idx =
      chassis_global * blades_per_chassis_ + static_cast<std::uint32_t>(c.slot);
  if (idx >= blade_count_) return std::nullopt;
  return BladeId{idx};
}

std::optional<CabinetId> Topology::cabinet_from_cname(const Cname& c) const noexcept {
  if (c.cab_x < 0 || c.cab_x >= config_.cabinet_cols || c.cab_y < 0 ||
      c.cab_y >= config_.cabinet_rows) {
    return std::nullopt;
  }
  const std::uint32_t cabinet = static_cast<std::uint32_t>(c.cab_y) *
                                    static_cast<std::uint32_t>(config_.cabinet_cols) +
                                static_cast<std::uint32_t>(c.cab_x);
  if (cabinet >= cabinet_count_) return std::nullopt;
  return CabinetId{cabinet};
}

void Topology::append_node_name(std::string& out, NodeId n) const {
  if (!n.valid() || n.value >= node_count_) {
    out += "nid-invalid";
  } else if (config_.naming == NamingScheme::CrayCname) {
    append_nid(out, n.value);
  } else {
    append_hostname(out, n.value);
  }
}

std::string Topology::node_name(NodeId n) const {
  std::string out;
  append_node_name(out, n);
  return out;
}

std::optional<NodeId> Topology::node_from_name(std::string_view name) const noexcept {
  const auto idx = config_.naming == NamingScheme::CrayCname ? parse_nid(name)
                                                             : parse_hostname(name);
  if (!idx || *idx >= node_count_) return std::nullopt;
  return NodeId{*idx};
}

}  // namespace hpcfail::platform
