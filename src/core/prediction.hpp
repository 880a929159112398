// Learned failure prediction: the ML-guided direction the paper recommends
// ("node failure prediction schemes can incorporate external correlations").
//
// A feature vector summarizes a node's recent history at a point in time —
// counts of each internal indicator family plus, optionally, the external
// (controller/ERD) indicator counts on the node's blade.  A logistic model
// trained on one corpus is evaluated on another; comparing the
// internal-only feature set against internal+external measures exactly the
// effect Fig 14 reports, now as a learned predictor.
#pragma once

#include <vector>

#include "core/root_cause.hpp"
#include "logmodel/log_store.hpp"
#include "stats/logistic.hpp"

namespace hpcfail::core {

struct FeatureConfig {
  bool include_external = true;
};

/// Names of the features, in vector order (for reports).
[[nodiscard]] std::vector<std::string> feature_names(const FeatureConfig& config);

class FeatureExtractor {
 public:
  FeatureExtractor(const logmodel::LogStore& store, FeatureConfig config)
      : store_(store), config_(config) {}

  /// Features for node at time `t` (looking backwards only).
  [[nodiscard]] std::vector<double> extract(platform::NodeId node, platform::BladeId blade,
                                            util::TimePoint t) const;

 private:
  const logmodel::LogStore& store_;
  FeatureConfig config_;
};

struct LabeledDataset {
  std::vector<std::vector<double>> features;
  std::vector<int> labels;
  std::size_t positives = 0;
};

struct DatasetConfig {
  FeatureConfig features;
};

/// Builds a training/evaluation dataset from a corpus and its detected
/// failures.
[[nodiscard]] LabeledDataset build_dataset(const logmodel::LogStore& store,
                                           const std::vector<AnalyzedFailure>& failures,
                                           std::uint32_t node_count,
                                           const DatasetConfig& config);

struct TrainedPredictor {
  stats::LogisticModel model;
  FeatureConfig features;
};

/// Trains on one corpus's dataset.
[[nodiscard]] TrainedPredictor train_predictor(const LabeledDataset& train,
                                               const FeatureConfig& features);

/// Evaluates on another corpus's dataset.
[[nodiscard]] stats::BinaryMetrics evaluate_predictor_model(const TrainedPredictor& predictor,
                                                            const LabeledDataset& test,
                                                            double threshold = 0.5);

}  // namespace hpcfail::core
