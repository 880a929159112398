#include "core/external_correlator.hpp"

#include "util/strings.hpp"

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;

namespace {

/// An external fault corresponds to a failure on the same node within
/// +/- this window (heartbeat faults typically trail the death by a minute
/// or two; voltage faults can lead it).
constexpr util::Duration kMatchWindow = util::Duration::minutes(30);

}  // namespace

ExternalCorrelator::ExternalCorrelator(const logmodel::LogStore& store,
                                       const std::vector<AnalyzedFailure>& failures)
    : store_(store), failures_(failures) {
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    const auto& f = failures_[i];
    if (f.event.node.valid()) failures_by_node_[f.event.node.value].push_back(i);
  }
}

const AnalyzedFailure* ExternalCorrelator::match_failure(platform::NodeId node,
                                                         util::TimePoint t) const {
  const auto it = failures_by_node_.find(node.value);
  if (it == failures_by_node_.end()) return nullptr;
  for (const std::size_t i : it->second) {
    const auto& f = failures_[i];
    const util::Duration gap{std::abs((f.event.time - t).usec)};
    if (gap <= kMatchWindow) return &f;
  }
  return nullptr;
}

FaultCorrespondence ExternalCorrelator::correspondence(EventType fault_type,
                                                       util::TimePoint begin,
                                                       util::TimePoint end) const {
  FaultCorrespondence out;
  for (const std::uint32_t idx : store_.type_range(fault_type, begin, end)) {
    const LogRecord& r = store_[idx];
    if (!r.has_node()) continue;
    ++out.faults;
    if (match_failure(r.node, r.time) != nullptr) ++out.matched;
  }
  return out;
}

NhfBreakdown ExternalCorrelator::nhf_breakdown(util::TimePoint begin,
                                               util::TimePoint end) const {
  NhfBreakdown out;
  for (const std::uint32_t idx :
       store_.type_range(EventType::NodeHeartbeatFault, begin, end)) {
    const LogRecord& r = store_[idx];
    if (!r.has_node()) continue;
    ++out.total;
    if (const auto* failure = match_failure(r.node, r.time)) {
      ++out.failed;
      if (failure->inference.cause == logmodel::RootCause::HardwareMce ||
          failure->inference.cause == logmodel::RootCause::FailSlowHardware) {
        ++out.failed_mce;
      }
    } else if (util::contains(store_.detail(r), "powered off")) {
      ++out.power_off;
    } else if (util::contains(store_.detail(r), "skipped")) {
      ++out.skipped_heartbeat;
    } else {
      ++out.other_benign;
    }
  }
  return out;
}

}  // namespace hpcfail::core
