#include "stats/logistic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace hpcfail::stats {

namespace {

// Full-batch gradient descent schedule.
constexpr int kEpochs = 300;
constexpr double kLearningRate = 0.5;
constexpr double kL2 = 1e-3;

double sigmoid(double z) noexcept {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}
}  // namespace

double LogisticModel::predict(std::span<const double> features) const {
  double z = bias;
  const std::size_t n = std::min(features.size(), weights.size());
  for (std::size_t i = 0; i < n; ++i) {
    z += weights[i] * (features[i] - feature_means[i]) / feature_stds[i];
  }
  return sigmoid(z);
}

LogisticModel train_logistic(const std::vector<std::vector<double>>& x,
                             const std::vector<int>& y) {
  if (x.empty() || x.size() != y.size()) {
    throw std::invalid_argument("train_logistic: empty or mismatched data");
  }
  const std::size_t dims = x.front().size();
  for (const auto& row : x) {
    if (row.size() != dims) throw std::invalid_argument("train_logistic: ragged rows");
  }
  const auto positives = static_cast<std::size_t>(std::count(y.begin(), y.end(), 1));
  if (positives == 0 || positives == y.size()) {
    throw std::invalid_argument("train_logistic: need both classes");
  }

  LogisticModel model;
  model.weights.assign(dims, 0.0);
  model.feature_means.assign(dims, 0.0);
  model.feature_stds.assign(dims, 1.0);

  // Standardize.
  const auto n = static_cast<double>(x.size());
  for (std::size_t d = 0; d < dims; ++d) {
    double mean = 0.0;
    for (const auto& row : x) mean += row[d];
    mean /= n;
    double var = 0.0;
    for (const auto& row : x) var += (row[d] - mean) * (row[d] - mean);
    var /= n;
    model.feature_means[d] = mean;
    model.feature_stds[d] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }

  std::vector<std::vector<double>> xs(x.size(), std::vector<double>(dims));
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      xs[i][d] = (x[i][d] - model.feature_means[d]) / model.feature_stds[d];
    }
  }

  std::vector<double> grad(dims);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double z = model.bias;
      for (std::size_t d = 0; d < dims; ++d) z += model.weights[d] * xs[i][d];
      const double err = sigmoid(z) - static_cast<double>(y[i]);
      for (std::size_t d = 0; d < dims; ++d) grad[d] += err * xs[i][d];
      grad_bias += err;
    }
    for (std::size_t d = 0; d < dims; ++d) {
      model.weights[d] -= kLearningRate * (grad[d] / n + kL2 * model.weights[d]);
    }
    model.bias -= kLearningRate * grad_bias / n;
  }
  return model;
}

BinaryMetrics evaluate_logistic(const LogisticModel& model,
                                const std::vector<std::vector<double>>& x,
                                const std::vector<int>& y, double threshold) {
  BinaryMetrics m;
  std::vector<double> pos_scores, neg_scores;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double p = model.predict(x[i]);
    const bool predicted = p >= threshold;
    if (y[i] == 1) {
      pos_scores.push_back(p);
      predicted ? ++m.tp : ++m.fn;
    } else {
      neg_scores.push_back(p);
      predicted ? ++m.fp : ++m.tn;
    }
  }
  // AUC via the Mann-Whitney rank statistic.
  if (!pos_scores.empty() && !neg_scores.empty()) {
    double wins = 0.0;
    for (const double p : pos_scores) {
      for (const double q : neg_scores) {
        if (p > q) {
          wins += 1.0;
        } else if (p == q) {
          wins += 0.5;
        }
      }
    }
    m.auc = wins / (static_cast<double>(pos_scores.size()) *
                    static_cast<double>(neg_scores.size()));
  }
  return m;
}

}  // namespace hpcfail::stats
