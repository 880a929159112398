// Minimal logistic regression for the learned failure predictor
// (core/prediction).  Full-batch gradient descent with L2 regularization
// and built-in feature standardization; deterministic given the data.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hpcfail::stats {

struct LogisticModel {
  std::vector<double> weights;  ///< per standardized feature
  double bias = 0.0;
  std::vector<double> feature_means;
  std::vector<double> feature_stds;  ///< 1 where a feature is constant

  /// P(y=1 | x) for a raw (unstandardized) feature vector.
  [[nodiscard]] double predict(std::span<const double> features) const;
};

/// Trains on rows X (equal lengths) with labels y in {0, 1}.
/// Requires at least one example of each class; throws otherwise.
[[nodiscard]] LogisticModel train_logistic(const std::vector<std::vector<double>>& x,
                                           const std::vector<int>& y);

struct BinaryMetrics {
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
  double auc = 0.0;  ///< ROC AUC via the rank statistic

  [[nodiscard]] double precision() const noexcept {
    return tp + fp ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0.0;
  }
  [[nodiscard]] double recall() const noexcept {
    return tp + fn ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
  }
  [[nodiscard]] double f1() const noexcept {
    const double p = precision(), r = recall();
    return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
  }
  [[nodiscard]] double accuracy() const noexcept {
    const auto total = tp + fp + tn + fn;
    return total ? static_cast<double>(tp + tn) / static_cast<double>(total) : 0.0;
  }
};

/// Evaluates a model at the given probability threshold.
[[nodiscard]] BinaryMetrics evaluate_logistic(const LogisticModel& model,
                                              const std::vector<std::vector<double>>& x,
                                              const std::vector<int>& y,
                                              double threshold = 0.5);

}  // namespace hpcfail::stats
