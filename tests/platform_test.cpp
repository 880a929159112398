// Unit and property tests for src/platform: cname grammar, topology maps,
// Table I presets.
#include <gtest/gtest.h>

#include "platform/cname.hpp"
#include "platform/system_config.hpp"
#include "platform/topology.hpp"

namespace hpcfail::platform {
namespace {

// -------------------------------------------------------------- cname ----

TEST(CnameTest, FormatLevels) {
  Cname c{12, 3, 2, 7, 3};
  EXPECT_EQ(c.to_string(), "c12-3c2s7n3");
  EXPECT_EQ(c.truncated(CnameLevel::Blade).to_string(), "c12-3c2s7");
  EXPECT_EQ(c.truncated(CnameLevel::Chassis).to_string(), "c12-3c2");
  EXPECT_EQ(c.truncated(CnameLevel::Cabinet).to_string(), "c12-3");
}

TEST(CnameTest, ParseLevels) {
  const auto node = parse_cname("c1-0c2s15n3");
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->level(), CnameLevel::Node);
  EXPECT_EQ(node->slot, 15);
  const auto blade = parse_cname("c1-0c2s15");
  ASSERT_TRUE(blade.has_value());
  EXPECT_EQ(blade->level(), CnameLevel::Blade);
  const auto cabinet = parse_cname("c1-0");
  ASSERT_TRUE(cabinet.has_value());
  EXPECT_EQ(cabinet->level(), CnameLevel::Cabinet);
}

TEST(CnameTest, RejectsMalformed) {
  for (const char* bad : {"", "c", "c1", "c1-", "x1-0", "c1-0c", "c1-0c2s", "c1-0c2s7n",
                          "c1-0c2s7n3x", "c1-0c2s7nn3", "c-1-0", "c1_0"}) {
    EXPECT_FALSE(parse_cname(bad).has_value()) << bad;
  }
}

TEST(CnameTest, NidRoundTrip) {
  std::string nid;
  append_nid(nid, 42);
  EXPECT_EQ(nid, "nid00042");
  EXPECT_EQ(parse_nid(nid), 42u);
  EXPECT_EQ(parse_nid("nid00042"), 42u);
  EXPECT_EQ(parse_nid("nid123456"), 123456u);
  EXPECT_FALSE(parse_nid("nid").has_value());
  EXPECT_FALSE(parse_nid("nidxyz").has_value());
  EXPECT_FALSE(parse_nid("node0042").has_value());
}

TEST(CnameTest, HostnameRoundTrip) {
  std::string hostname;
  append_hostname(hostname, 7);
  EXPECT_EQ(hostname, "node0007");
  EXPECT_EQ(parse_hostname(hostname), 7u);
  EXPECT_FALSE(parse_hostname("nid00007").has_value());
}

// ------------------------------------------------------------ topology ----

TEST(TopologyTest, FullCabinetCounts) {
  TopologyConfig cfg;  // 1 cabinet, 3 chassis, 16 slots, 4 nodes
  const Topology topo(cfg);
  EXPECT_EQ(topo.node_count(), 192u);
  EXPECT_EQ(topo.blade_count(), 48u);
  EXPECT_EQ(topo.chassis_count(), 3u);
  EXPECT_EQ(topo.cabinet_count(), 1u);
}

TEST(TopologyTest, PartialMachineClipsBlades) {
  TopologyConfig cfg;
  cfg.max_nodes = 10;  // 2.5 blades
  const Topology topo(cfg);
  EXPECT_EQ(topo.node_count(), 10u);
  EXPECT_EQ(topo.blade_count(), 3u);
  EXPECT_EQ(topo.nodes_on_blade(BladeId{2}).size(), 2u);
  EXPECT_EQ(topo.nodes_on_blade(BladeId{3}).size(), 0u);
}

TEST(TopologyTest, BladeAndCabinetOfNode) {
  TopologyConfig cfg;
  cfg.cabinet_cols = 2;
  cfg.cabinet_rows = 2;
  const Topology topo(cfg);
  // Node 0 is blade 0, cabinet 0; node 191 is the last of cabinet 0.
  EXPECT_EQ(topo.blade_of(NodeId{0}).value, 0u);
  EXPECT_EQ(topo.cabinet_of(NodeId{191}).value, 0u);
  EXPECT_EQ(topo.cabinet_of(NodeId{192}).value, 1u);
  EXPECT_EQ(topo.blade_of(NodeId{193}).value, 48u);
}

class CnameNodeRoundTrip : public ::testing::TestWithParam<SystemName> {};

TEST_P(CnameNodeRoundTrip, EveryNodeRoundTrips) {
  const SystemConfig sys = system_preset(GetParam());
  const Topology topo(sys.topology);
  // Stride through the machine to keep runtime low while covering the full
  // id range including the partial tail.
  for (std::uint32_t n = 0; n < topo.node_count(); n += 97) {
    const NodeId node{n};
    const Cname cname = topo.cname_of(node);
    const auto back = topo.node_from_cname(cname);
    ASSERT_TRUE(back.has_value()) << cname.to_string();
    EXPECT_EQ(back->value, n);
    // String round trip too.
    const auto parsed = parse_cname(cname.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, cname);
    // Node-name round trip.
    EXPECT_EQ(topo.node_from_name(topo.node_name(node)), node);
  }
  // Last node exactly.
  const NodeId last{topo.node_count() - 1};
  EXPECT_EQ(topo.node_from_cname(topo.cname_of(last)), last);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, CnameNodeRoundTrip,
                         ::testing::Values(SystemName::S1, SystemName::S2, SystemName::S3,
                                           SystemName::S4, SystemName::S5));

TEST(TopologyTest, BladeCnameRoundTrip) {
  const Topology topo(system_preset(SystemName::S3).topology);
  for (std::uint32_t b = 0; b < topo.blade_count(); b += 13) {
    const BladeId blade{b};
    const auto back = topo.blade_from_cname(topo.cname_of_blade(blade));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->value, b);
  }
}

TEST(TopologyTest, OutOfRangeRejected) {
  const Topology topo(TopologyConfig{});
  EXPECT_FALSE(topo.node_from_cname(Cname{5, 0, 0, 0, 0}).has_value());
  EXPECT_FALSE(topo.node_from_cname(Cname{0, 0, 3, 0, 0}).has_value());
  EXPECT_FALSE(topo.node_from_cname(Cname{0, 0, 0, 16, 0}).has_value());
  EXPECT_FALSE(topo.node_from_cname(Cname{0, 0, 0, 0, 4}).has_value());
  EXPECT_FALSE(topo.node_from_name("nid99999").has_value());
  EXPECT_EQ(topo.blade_of(NodeId{}).valid(), false);
}

TEST(TopologyTest, CabinetGridFillsRowsFirst) {
  TopologyConfig cfg;
  cfg.cabinet_cols = 3;
  cfg.cabinet_rows = 2;
  const Topology topo(cfg);
  const std::uint32_t per_cab = 192;
  const auto cabinet_name = [&topo](std::uint32_t node) {
    return topo.cname_of_cabinet(topo.cabinet_of(NodeId{node})).to_string();
  };
  EXPECT_EQ(cabinet_name(0), "c0-0");
  EXPECT_EQ(cabinet_name(per_cab * 2), "c2-0");
  EXPECT_EQ(cabinet_name(per_cab * 5), "c2-1");
}

TEST(TopologyTest, InvalidConfigThrows) {
  TopologyConfig cfg;
  cfg.nodes_per_slot = 0;
  EXPECT_THROW(Topology{cfg}, std::invalid_argument);
}

// -------------------------------------------------------------- presets ----

TEST(PresetTest, TableOneFacts) {
  const auto all = all_system_presets();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].nodes, 5600u);
  EXPECT_EQ(all[1].interconnect, InterconnectKind::GeminiTorus);
  EXPECT_EQ(all[1].scheduler, SchedulerKind::Torque);
  EXPECT_EQ(all[2].has_burst_buffer, true);
  EXPECT_EQ(all[4].filesystem, FileSystemKind::LocalFs);
  EXPECT_EQ(all[4].topology.naming, NamingScheme::Hostname);
  for (const auto& sys : all) {
    EXPECT_EQ(Topology(sys.topology).node_count(), sys.nodes) << sys.label;
  }
}

}  // namespace
}  // namespace hpcfail::platform
