// Tests for the top-level facade: training + conversion + hardware wiring.
// Uses a reduced network / dataset so the whole flow stays fast.
#include <gtest/gtest.h>

#include <cstdio>

#include "esam/core/esam.hpp"

namespace esam::core {
namespace {

ModelConfig small_config() {
  ModelConfig cfg;
  cfg.shape = {768, 32, 10};
  cfg.n_train = 400;
  cfg.n_test = 120;
  cfg.train.epochs = 4;
  cfg.cache_path.clear();  // no caching by default in tests
  return cfg;
}

TEST(TrainedModel, CreateTrainsAndConverts) {
  const TrainedModel m = TrainedModel::create(small_config());
  EXPECT_EQ(m.bnn.shape(), (std::vector<std::size_t>{768, 32, 10}));
  EXPECT_EQ(m.snn.shape(), m.bnn.shape());
  // Even a small BNN beats chance comfortably after a few epochs.
  ASSERT_TRUE(m.bnn_train_accuracy.has_value());
  EXPECT_GT(*m.bnn_train_accuracy, 0.5);
  EXPECT_GT(m.bnn_test_accuracy, 0.4);
  // Conversion is exact, so SNN accuracy equals BNN accuracy.
  EXPECT_DOUBLE_EQ(m.snn.accuracy(m.data.test.spikes, m.data.test.labels),
                   m.bnn_test_accuracy);
}

TEST(TrainedModel, CacheRoundTrip) {
  ModelConfig cfg = small_config();
  cfg.cache_path = ::testing::TempDir() + "/esam_core_cache.bin";
  std::remove(cfg.cache_path.c_str());
  const TrainedModel first = TrainedModel::create(cfg);
  // Second call must load the cache and produce the identical model.
  const TrainedModel second = TrainedModel::create(cfg);
  EXPECT_DOUBLE_EQ(first.bnn_test_accuracy, second.bnn_test_accuracy);
  for (std::size_t l = 0; l < first.bnn.layers().size(); ++l) {
    EXPECT_EQ(first.bnn.layers()[l].latent.flat(),
              second.bnn.layers()[l].latent.flat());
  }
  std::remove(cfg.cache_path.c_str());
}

TEST(TrainedModel, WarmCreateBuildsOnlyTheTestSplit) {
  ModelConfig cfg = small_config();
  cfg.cache_path = ::testing::TempDir() + "/esam_core_cache_warm.bin";
  std::remove(cfg.cache_path.c_str());
  const TrainedModel cold = TrainedModel::create(cfg);
  const TrainedModel warm = TrainedModel::create(cfg);
  std::remove(cfg.cache_path.c_str());

  EXPECT_EQ(cold.data.train.size(), cfg.n_train);
  EXPECT_TRUE(cold.bnn_train_accuracy.has_value());
  EXPECT_EQ(warm.data.train.size(), 0u);
  EXPECT_FALSE(warm.bnn_train_accuracy.has_value());

  // The test split a warm create builds alone is the cold one.
  EXPECT_EQ(warm.data.test.bipolar, cold.data.test.bipolar);
  EXPECT_EQ(warm.data.test.spikes, cold.data.test.spikes);
  EXPECT_EQ(warm.data.test.labels, cold.data.test.labels);
  EXPECT_EQ(warm.data.test.source, cold.data.test.source);
  EXPECT_EQ(warm.bnn_test_accuracy, cold.bnn_test_accuracy);
  ASSERT_EQ(warm.snn.layers().size(), cold.snn.layers().size());
  for (std::size_t l = 0; l < cold.snn.layers().size(); ++l) {
    EXPECT_EQ(warm.snn.layers()[l].thresholds, cold.snn.layers()[l].thresholds);
  }
}

TEST(TrainedModel, CacheIgnoredOnShapeMismatch) {
  ModelConfig cfg = small_config();
  cfg.cache_path = ::testing::TempDir() + "/esam_core_cache2.bin";
  std::remove(cfg.cache_path.c_str());
  (void)TrainedModel::create(cfg);
  ModelConfig other = cfg;
  other.shape = {768, 16, 10};
  const TrainedModel m = TrainedModel::create(other);  // must retrain
  EXPECT_EQ(m.bnn.shape(), other.shape);
  std::remove(cfg.cache_path.c_str());
}

TEST(EsamSystem, HardwareAccuracyMatchesSoftware) {
  const TrainedModel model = TrainedModel::create(small_config());
  EsamSystem system(model, {});
  const SystemReport rep = system.evaluate(120);
  // The cycle-accurate hardware must classify exactly like the converted
  // SNN, which equals the BNN.
  EXPECT_DOUBLE_EQ(rep.accuracy, model.bnn_test_accuracy);
  EXPECT_EQ(rep.inferences, 120u);
  EXPECT_GT(rep.throughput_minf_per_s, 0.0);
  EXPECT_GT(rep.energy_per_inf_pj, 0.0);
  EXPECT_GT(rep.power_mw, 0.0);
  EXPECT_GT(rep.area_um2, 0.0);
  EXPECT_EQ(rep.cell, "1RW+4R");
  EXPECT_EQ(rep.dataset_source, "synthetic");
}

TEST(EsamSystem, EvaluateSubsetLimit) {
  const TrainedModel model = TrainedModel::create(small_config());
  EsamSystem system(model, {});
  EXPECT_EQ(system.evaluate(10).inferences, 10u);
  EXPECT_EQ(system.evaluate(0).inferences, 120u);  // 0 = all
}

TEST(EsamSystem, EvaluateModelledFieldsIndependentOfThreads) {
  // Host threads only shard the simulation: every modelled field is
  // bit-identical, only the simulator stats may differ.
  const TrainedModel model = TrainedModel::create(small_config());
  EsamSystem system(model, {});
  const SystemReport one = system.evaluate(120, {.num_threads = 1});
  const SystemReport four = system.evaluate(120, {.num_threads = 4});
  EXPECT_EQ(four.sim_threads, 4u);
  EXPECT_EQ(one.cell, four.cell);
  EXPECT_EQ(one.dataset_source, four.dataset_source);
  EXPECT_EQ(one.clock_mhz, four.clock_mhz);
  EXPECT_EQ(one.throughput_minf_per_s, four.throughput_minf_per_s);
  EXPECT_EQ(one.energy_per_inf_pj, four.energy_per_inf_pj);
  EXPECT_EQ(one.power_mw, four.power_mw);
  EXPECT_EQ(one.area_um2, four.area_um2);
  EXPECT_EQ(one.accuracy, four.accuracy);
  EXPECT_EQ(one.avg_cycles_per_inf, four.avg_cycles_per_inf);
  EXPECT_EQ(one.neurons, four.neurons);
  EXPECT_EQ(one.synapses, four.synapses);
  EXPECT_EQ(one.inferences, four.inferences);
}

TEST(SystemReport, PrintProducesTable) {
  SystemReport rep;
  rep.cell = "1RW+4R";
  rep.dataset_source = "synthetic";
  rep.clock_mhz = 813.0;
  rep.throughput_minf_per_s = 44.0;
  rep.energy_per_inf_pj = 607.0;
  rep.power_mw = 29.0;
  // Just exercise the path; content is human-facing.
  testing::internal::CaptureStdout();
  rep.print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("throughput"), std::string::npos);
  EXPECT_NE(out.find("44.0 MInf/s"), std::string::npos);
}

}  // namespace
}  // namespace esam::core
