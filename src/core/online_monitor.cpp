#include "core/online_monitor.hpp"

#include <limits>

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;

namespace {

/// Two indicative internal records of different types within this window
/// form a warning pattern.
constexpr util::Duration kPatternWindow = util::Duration::minutes(10);
/// How long node-internal evidence is remembered.
constexpr util::Duration kEvidenceMemory = util::Duration::minutes(30);
/// How long blade-external indicators are remembered.
constexpr util::Duration kExternalMemory = util::Duration::hours(1);
/// Minimum spacing between warnings for the same node.
constexpr util::Duration kWarningCooldown = util::Duration::hours(1);

}  // namespace

std::string_view to_string(AlertKind k) noexcept {
  switch (k) {
    case AlertKind::PatternWarning: return "PatternWarning";
    case AlertKind::ExternalEarlyWarning: return "ExternalEarlyWarning";
    case AlertKind::FailureConfirmed: return "FailureConfirmed";
    case AlertKind::NodeRecovered: return "NodeRecovered";
  }
  return "?";
}

Evidence OnlineMonitor::evidence_for(const NodeView& node, platform::BladeId blade,
                                     util::TimePoint now) const {
  Evidence ev;
  for (const auto& e : node.recent) add_evidence(ev, e.type, e.detail);
  if (blade.valid()) {
    const auto it = blade_external_.find(blade.value);
    if (it != blade_external_.end()) {
      for (const auto& e : it->second) {
        if (now - e.time <= kExternalMemory) add_evidence(ev, e.type, e.detail);
      }
    }
  }
  return ev;
}

std::vector<Alert> OnlineMonitor::ingest(const LogRecord& record, std::string_view detail) {
  std::vector<Alert> alerts;

  // Remember blade-scoped external indicators.
  if (logmodel::is_external_indicator(record.type) &&
      record.type != EventType::NodeHeartbeatFault && record.has_blade()) {
    auto& mem = blade_external_[record.blade.value];
    mem.push_back({record.time, record.type, {}});
    while (!mem.empty() && record.time - mem.front().time > kExternalMemory) {
      mem.pop_front();
    }
  }

  if (!record.has_node()) return alerts;
  NodeView& node = nodes_[record.node.value];

  // Failure markers confirm; diagnosis from accumulated evidence.
  if (logmodel::is_failure_marker(record.type)) {
    if (!node.down) {
      node.down = true;
      const RootCauseEngine engine;
      const Inference inference =
          engine.infer(evidence_for(node, record.blade, record.time), record.type);
      alerts.push_back({AlertKind::FailureConfirmed, record.time, record.node,
                        inference.cause,
                        "failure confirmed: " + inference.rationale});
    }
    return alerts;
  }
  if (record.type == EventType::NodeBoot) {
    if (node.down) {
      node.down = false;
      node.recent.clear();
      alerts.push_back({AlertKind::NodeRecovered, record.time, record.node,
                        logmodel::RootCause::Unknown, "node rebooted and returned"});
    }
    return alerts;
  }
  if (!logmodel::is_internal_indicator(record.type) &&
      record.type != EventType::CallTrace) {
    return alerts;
  }

  // Pattern detection over the remembered internal events.
  bool pattern = false;
  for (const auto& e : node.recent) {
    if (e.type != record.type && record.time - e.time <= kPatternWindow &&
        e.type != EventType::CallTrace && record.type != EventType::CallTrace) {
      pattern = true;
      break;
    }
  }
  node.recent.push_back({record.time, record.type, std::string(detail)});
  while (!node.recent.empty() &&
         record.time - node.recent.front().time > kEvidenceMemory) {
    node.recent.pop_front();
  }

  if (pattern && record.time - node.last_warning >= kWarningCooldown) {
    node.last_warning = record.time;
    const Evidence ev = evidence_for(node, record.blade, record.time);
    const bool external = ev.ec_hw_errors || ev.node_voltage_fault || ev.link_errors ||
                          ev.sedc_voltage;
    const RootCauseEngine engine;
    const Inference inference = engine.infer(ev, EventType::NodeShutdown);
    alerts.push_back({external ? AlertKind::ExternalEarlyWarning
                               : AlertKind::PatternWarning,
                      record.time, record.node, inference.cause,
                      external ? "indicative pattern with external corroboration"
                               : "indicative internal pattern"});
  }
  return alerts;
}

std::vector<Alert> OnlineMonitor::ingest_all(const logmodel::LogStore& store) {
  std::vector<Alert> all;
  for (const auto& r : store.records()) {
    for (auto& alert : ingest(r, store.detail(r))) all.push_back(std::move(alert));
  }
  return all;
}

}  // namespace hpcfail::core
