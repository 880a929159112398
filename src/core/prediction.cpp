#include "core/prediction.hpp"

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;

namespace {

/// Feature windows: internal indicators on the node, external ones on its
/// blade, looking back from the sample time.
constexpr util::Duration kInternalWindow = util::Duration::minutes(30);
constexpr util::Duration kExternalWindow = util::Duration::hours(1);
/// A positive example is sampled this far before each failure.
constexpr util::Duration kPositiveOffset = util::Duration::minutes(2);
/// Negatives per positive, sampled at (node, time) pairs with no failure
/// within the horizon.
constexpr double kNegativesPerPositive = 3.0;
constexpr util::Duration kFailureHorizon = util::Duration::hours(1);
constexpr std::uint64_t kNegativeSeed = 1234;

}  // namespace

std::vector<std::string> feature_names(const FeatureConfig& config) {
  std::vector<std::string> names = {
      "hw_errors",     "mce_count",     "lustre_errors", "memory_pressure",
      "kernel_signals", "nhc_signals",  "distinct_types", "minutes_since_last",
  };
  if (config.include_external) {
    names.insert(names.end(),
                 {"ext_ec_hw", "ext_voltage", "ext_link", "ext_sedc_voltage"});
  }
  return names;
}

std::vector<double> FeatureExtractor::extract(platform::NodeId node,
                                              platform::BladeId blade,
                                              util::TimePoint t) const {
  double hw = 0, mce = 0, lustre = 0, memory = 0, kernel = 0, nhc = 0;
  std::array<bool, logmodel::kEventTypeCount> seen{};
  util::TimePoint last{t.usec - kInternalWindow.usec};

  for (const std::uint32_t idx :
       store_.node_range(node, t - kInternalWindow, t)) {
    const LogRecord& r = store_[idx];
    if (!logmodel::is_internal_indicator(r.type)) continue;
    seen[static_cast<std::size_t>(r.type)] = true;
    if (r.time > last) last = r.time;
    switch (r.type) {
      case EventType::HardwareError:
      case EventType::CpuCorruption: hw += 1; break;
      case EventType::MachineCheckException: mce += 1; break;
      case EventType::LustreError:
      case EventType::LustreBug:
      case EventType::DvsError:
      case EventType::InodeError: lustre += 1; break;
      case EventType::OomKill:
      case EventType::PageAllocationFailure: memory += 1; break;
      case EventType::KernelOops:
      case EventType::InvalidOpcode:
      case EventType::CpuStall:
      case EventType::SegFault: kernel += 1; break;
      case EventType::NhcTestFail:
      case EventType::AppExitAbnormal: nhc += 1; break;
      default: break;
    }
  }
  double distinct = 0;
  for (const bool b : seen) distinct += b;

  std::vector<double> features = {
      hw, mce, lustre, memory, kernel, nhc, distinct, (t - last).to_minutes()};

  if (config_.include_external && blade.valid()) {
    double ec_hw = 0, voltage = 0, link = 0, sedc = 0;
    for (const std::uint32_t idx :
         store_.blade_range(blade, t - kExternalWindow, t)) {
      const LogRecord& r = store_[idx];
      if (r.has_node() && r.node != node) continue;
      switch (r.type) {
        case EventType::EcHwError: ec_hw += 1; break;
        case EventType::NodeVoltageFault: voltage += 1; break;
        case EventType::LinkError: link += 1; break;
        case EventType::SedcVoltageWarning: sedc += 1; break;
        default: break;
      }
    }
    features.insert(features.end(), {ec_hw, voltage, link, sedc});
  } else if (config_.include_external) {
    features.insert(features.end(), {0.0, 0.0, 0.0, 0.0});
  }
  return features;
}

LabeledDataset build_dataset(const logmodel::LogStore& store,
                             const std::vector<AnalyzedFailure>& failures,
                             std::uint32_t node_count, const DatasetConfig& config) {
  LabeledDataset dataset;
  const FeatureExtractor extractor(store, config.features);

  // Positives: just before each failure.
  for (const auto& f : failures) {
    dataset.features.push_back(
        extractor.extract(f.event.node, f.event.blade, f.event.time - kPositiveOffset));
    dataset.labels.push_back(1);
    ++dataset.positives;
  }

  // Negatives: random (node, time) pairs with no failure within the horizon.
  util::Rng rng(kNegativeSeed);
  const auto wanted = static_cast<std::size_t>(
      kNegativesPerPositive * static_cast<double>(dataset.positives));
  const util::TimePoint begin = store.first_time();
  const util::TimePoint end = store.last_time();
  if (end <= begin || node_count == 0) return dataset;

  std::size_t produced = 0;
  std::size_t attempts = 0;
  while (produced < wanted && attempts < wanted * 20 + 100) {
    ++attempts;
    const platform::NodeId node{static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(node_count) - 1))};
    const util::TimePoint t{begin.usec + rng.uniform_int(0, end.usec - begin.usec)};
    bool near_failure = false;
    for (const auto& f : failures) {
      if (f.event.node == node &&
          std::abs((f.event.time - t).usec) <= kFailureHorizon.usec) {
        near_failure = true;
        break;
      }
    }
    if (near_failure) continue;
    // Blade id from any record of the node, else invalid (no external).
    platform::BladeId blade;
    const auto idx = store.node_index(node);
    if (!idx.empty()) blade = store[idx.front()].blade;
    dataset.features.push_back(extractor.extract(node, blade, t));
    dataset.labels.push_back(0);
    ++produced;
  }
  return dataset;
}

TrainedPredictor train_predictor(const LabeledDataset& train, const FeatureConfig& features) {
  TrainedPredictor predictor;
  predictor.features = features;
  predictor.model = stats::train_logistic(train.features, train.labels);
  return predictor;
}

stats::BinaryMetrics evaluate_predictor_model(const TrainedPredictor& predictor,
                                              const LabeledDataset& test, double threshold) {
  return stats::evaluate_logistic(predictor.model, test.features, test.labels, threshold);
}

}  // namespace hpcfail::core
