// Table I: the five-system inventory. Prints the presets and verifies the
// modelled topologies reach the paper's node counts.
// hpcfail-lint: allow(bench-pipeline) -- pure topology, no failure analysis
#include "bench_common.hpp"
#include "platform/system_config.hpp"
#include "util/table.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Table I: HPC system details");

  util::TextTable table({"System", "Type", "Months", "Log GB", "Nodes", "Interconnect",
                         "Scheduler", "FS/OS", "Processors", "Extras"});
  for (const auto& sys : platform::all_system_presets()) {
    const platform::Topology topo(sys.topology);
    std::string extras;
    if (sys.has_gpus) extras += "GPUs ";
    if (sys.has_burst_buffer) extras += "BurstBuffer";
    if (extras.empty()) extras = "-";
    // Built stepwise: GCC 12's -Wrestrict false-positives on chained +.
    std::string fs_os = sys.filesystem_name();
    fs_os += '/';
    fs_os += sys.os;
    table.row()
        .cell(sys.label)
        .cell(sys.machine_type)
        .cell(sys.duration_months)
        .cell(sys.log_size_gb, 1)
        .cell(static_cast<std::int64_t>(topo.node_count()))
        .cell(sys.interconnect_name())
        .cell(sys.scheduler_name())
        .cell(fs_os)
        .cell(sys.processors)
        .cell(extras);
    check.in_range(sys.label + " topology node count", topo.node_count(),
                   static_cast<double>(sys.nodes), static_cast<double>(sys.nodes));
  }
  std::cout << table.render() << '\n';
  return check.exit_code();
}
