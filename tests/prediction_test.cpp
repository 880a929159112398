// Tests for stats/logistic, stats/survival and core/prediction: the learned
// failure predictor trained on one corpus and evaluated on another.
#include <gtest/gtest.h>

#include "core/analysis_context.hpp"
#include "core/prediction.hpp"
#include "core/root_cause.hpp"
#include "faultsim/simulator.hpp"
#include "stats/logistic.hpp"
#include "stats/survival.hpp"
#include "util/rng.hpp"

namespace hpcfail {
namespace {

/// Detection + diagnosis over the store's full extent.
std::vector<core::AnalyzedFailure> diagnose_all(const logmodel::LogStore& store) {
  const core::AnalysisContext ctx(store, nullptr);
  return ctx.failures();
}

// ------------------------------------------------------------- logistic ----

TEST(LogisticTest, SeparableDataLearned) {
  // y = 1 iff x0 > 2.
  util::Rng rng(1);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    const double v = rng.uniform(0.0, 4.0);
    x.push_back({v, rng.uniform()});
    y.push_back(v > 2.0 ? 1 : 0);
  }
  const auto model = stats::train_logistic(x, y);
  const auto metrics = stats::evaluate_logistic(model, x, y);
  EXPECT_GT(metrics.accuracy(), 0.95);
  EXPECT_GT(metrics.auc, 0.98);
  EXPECT_GT(model.predict(std::vector<double>{3.5, 0.5}), 0.8);
  EXPECT_LT(model.predict(std::vector<double>{0.5, 0.5}), 0.2);
}

TEST(LogisticTest, InvalidInputsThrow) {
  EXPECT_THROW(stats::train_logistic({}, {}), std::invalid_argument);
  EXPECT_THROW(stats::train_logistic({{1.0}}, {1}), std::invalid_argument);  // one class
  EXPECT_THROW(stats::train_logistic({{1.0}, {1.0, 2.0}}, {0, 1}), std::invalid_argument);
}

TEST(LogisticTest, ConstantFeatureHandled) {
  std::vector<std::vector<double>> x = {{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}, {4.0, 5.0}};
  std::vector<int> y = {0, 0, 1, 1};
  const auto model = stats::train_logistic(x, y);
  EXPECT_GT(model.predict(std::vector<double>{4.0, 5.0}), 0.5);
}

// ------------------------------------------------------------- survival ----

TEST(SurvivalTest, KaplanMeierUncensoredMatchesEcdf) {
  const std::vector<double> durations = {1, 2, 3, 4, 5};
  const stats::KaplanMeier km(durations);
  EXPECT_DOUBLE_EQ(km.survival_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(km.survival_at(1.0), 0.8);
  EXPECT_DOUBLE_EQ(km.survival_at(3.0), 0.4);
  EXPECT_DOUBLE_EQ(km.survival_at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(km.median(), 3.0);
}

TEST(SurvivalTest, CensoringRaisesSurvival) {
  const std::vector<double> durations = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> observed = {1, 0, 1, 0, 1};  // 2 and 4 censored
  const stats::KaplanMeier km(durations, observed);
  // After t=3: S = (1 - 1/5) * (1 - 1/3) = 0.5333...
  EXPECT_NEAR(km.survival_at(3.0), 0.8 * (2.0 / 3.0), 1e-12);
  // Censored times are not event points.
  for (const auto& p : km.curve()) {
    EXPECT_NE(p.time, 2.0);
    EXPECT_NE(p.time, 4.0);
  }
}

TEST(SurvivalTest, DiscreteHazardDecreasingForBurstyData) {
  // Mixture: many short gaps (bursts) + few long gaps => hazard decreases.
  util::Rng rng(7);
  std::vector<double> gaps;
  for (int i = 0; i < 2000; ++i) {
    gaps.push_back(rng.bernoulli(0.8) ? rng.exponential(1.0)        // ~1 min
                                      : 60.0 + rng.exponential(0.01));  // hours
  }
  const std::vector<double> edges = {0, 2, 10, 60, 600};
  const auto hazard = stats::discrete_hazard(gaps, edges);
  ASSERT_EQ(hazard.size(), 4u);
  EXPECT_GT(hazard[0].hazard(), hazard[2].hazard());
}

TEST(SurvivalTest, SizeMismatchThrows) {
  const std::vector<double> d = {1.0};
  const std::vector<std::uint8_t> o = {1, 0};
  EXPECT_THROW(stats::KaplanMeier(d, o), std::invalid_argument);
}

// ------------------------------------------------------------ prediction ----

struct PredictionFixture : public ::testing::Test {
  void SetUp() override {
    train_sim = std::make_unique<faultsim::SimulationResult>(
        faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 14, 501))
            .run());
    test_sim = std::make_unique<faultsim::SimulationResult>(
        faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 14, 502))
            .run());
    train_store = std::make_unique<logmodel::LogStore>(train_sim->make_store());
    test_store = std::make_unique<logmodel::LogStore>(test_sim->make_store());
    train_failures = diagnose_all(*train_store);
    test_failures = diagnose_all(*test_store);
  }

  std::unique_ptr<faultsim::SimulationResult> train_sim, test_sim;
  std::unique_ptr<logmodel::LogStore> train_store, test_store;
  std::vector<core::AnalyzedFailure> train_failures, test_failures;
};

TEST_F(PredictionFixture, CrossCorpusGeneralization) {
  core::DatasetConfig cfg;
  const auto train = core::build_dataset(*train_store, train_failures,
                                         train_sim->topology.node_count(), cfg);
  ASSERT_GT(train.positives, 20u);
  ASSERT_GT(train.features.size(), train.positives * 2);

  const auto predictor = core::train_predictor(train, cfg.features);
  const auto test = core::build_dataset(*test_store, test_failures,
                                        test_sim->topology.node_count(), cfg);
  const auto metrics = core::evaluate_predictor_model(predictor, test);
  // Positives include precursor-less failures (bare shutdowns, BIOS
  // patterns) that nothing can predict, bounding AUC below 1.
  EXPECT_GT(metrics.auc, 0.85) << "learned predictor should separate failures";
  EXPECT_GT(metrics.recall(), 0.65);
  EXPECT_GT(metrics.precision(), 0.7);
}

TEST_F(PredictionFixture, ExternalFeaturesHelp) {
  core::DatasetConfig with;
  core::DatasetConfig without;
  without.features.include_external = false;
  const auto train_with = core::build_dataset(*train_store, train_failures,
                                              train_sim->topology.node_count(), with);
  const auto train_without = core::build_dataset(*train_store, train_failures,
                                                 train_sim->topology.node_count(), without);
  const auto test_with = core::build_dataset(*test_store, test_failures,
                                             test_sim->topology.node_count(), with);
  const auto test_without = core::build_dataset(*test_store, test_failures,
                                                test_sim->topology.node_count(), without);

  const auto model_with = core::train_predictor(train_with, with.features);
  const auto model_without = core::train_predictor(train_without, without.features);
  const auto metrics_with = core::evaluate_predictor_model(model_with, test_with);
  const auto metrics_without = core::evaluate_predictor_model(model_without, test_without);
  // The paper's thesis in learned form: external correlations should not
  // hurt, and typically help, the predictor.
  EXPECT_GE(metrics_with.auc + 0.02, metrics_without.auc);
}

TEST_F(PredictionFixture, FeatureVectorShape) {
  core::FeatureConfig cfg;
  const core::FeatureExtractor extractor(*train_store, cfg);
  const auto names = core::feature_names(cfg);
  const auto features = extractor.extract(platform::NodeId{0}, platform::BladeId{0},
                                          train_store->first_time());
  EXPECT_EQ(features.size(), names.size());
  cfg.include_external = false;
  const core::FeatureExtractor internal_only(*train_store, cfg);
  EXPECT_EQ(internal_only.extract(platform::NodeId{0}, platform::BladeId{0},
                                  train_store->first_time())
                .size(),
            core::feature_names(cfg).size());
}

}  // namespace
}  // namespace hpcfail
