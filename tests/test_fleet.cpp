// Tests for the fleet-scale multi-device simulation: the report must be
// bit-identical for any worker count (the run_batched merge discipline),
// every per-device Monte-Carlo stream must be decorrelated across devices
// and across streams, shards must clamp to the dataset, and the yield
// accounting must agree exactly with the per-device flags.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "esam/data/dataset.hpp"
#include "esam/fleet/fleet.hpp"
#include "esam/nn/bnn.hpp"
#include "esam/nn/convert.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::fleet {
namespace {

/// Shared fast fixture: a random paper-width network (the fleet engine does
/// not care whether it was trained) and a small synthetic test stream.
struct Fixture {
  nn::SnnNetwork snn;
  data::PreparedDataset test;

  Fixture() {
    util::Rng rng(77);
    nn::BnnNetwork bnn({768, 16, 10}, rng);
    snn = nn::SnnNetwork::from_bnn(bnn);
    test = data::load_default_split(0, 48, 7).test;
  }
};

FleetConfig small_config() {
  FleetConfig fc;
  fc.devices = 5;
  fc.shard_inferences = 16;
  fc.adapt_epochs = 1;
  fc.update_interval = 2;
  fc.device.defect_rate = 2e-3;
  fc.accuracy_floor = 0.05;
  return fc;
}

TEST(Fleet, WorkerCountDeterminism) {
  const Fixture fx;
  FleetConfig fc = small_config();

  fc.workers = 1;
  const FleetSimulator serial(fx.snn, fx.test, tech::imec3nm(), fc);
  const FleetReport a = serial.run();

  fc.workers = 4;
  const FleetSimulator pooled(fx.snn, fx.test, tech::imec3nm(), fc);
  const FleetReport b = pooled.run();

  ASSERT_EQ(a.per_device.size(), b.per_device.size());
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    const DeviceReport& x = a.per_device[i];
    const DeviceReport& y = b.per_device[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.seeds.variation, y.seeds.variation);
    EXPECT_EQ(x.fault_cells, y.fault_cells);
    EXPECT_EQ(x.inferences, y.inferences);
    EXPECT_EQ(x.column_updates, y.column_updates);
    // Exact double comparison on purpose: bit-identical is the contract.
    EXPECT_EQ(x.accuracy_clean, y.accuracy_clean);
    EXPECT_EQ(x.accuracy_drifted, y.accuracy_drifted);
    EXPECT_EQ(x.accuracy_final, y.accuracy_final);
    EXPECT_EQ(x.energy_per_inf_pj, y.energy_per_inf_pj);
    EXPECT_EQ(x.timing.read_path_ns, y.timing.read_path_ns);
    EXPECT_EQ(x.leakage_mw, y.leakage_mw);
  }
  EXPECT_EQ(a.timing_yield, b.timing_yield);
  EXPECT_EQ(a.functional_yield, b.functional_yield);
  EXPECT_EQ(a.accuracy_final.p50, b.accuracy_final.p50);
  EXPECT_EQ(a.energy_per_inf_pj.p997, b.energy_per_inf_pj.p997);
}

TEST(Fleet, OversubscribedWorkersClampToDeviceCount) {
  const Fixture fx;
  FleetConfig fc = small_config();
  fc.devices = 2;
  fc.workers = 16;  // more workers than devices must not deadlock or skew
  const FleetSimulator sim(fx.snn, fx.test, tech::imec3nm(), fc);
  const FleetReport r = sim.run();
  EXPECT_EQ(r.per_device.size(), 2u);
}

TEST(Fleet, SeedsDecorrelatedAcrossDevicesAndStreams) {
  // All four streams of 64 devices must be pairwise distinct -- a collision
  // would correlate two dies' Monte-Carlo draws.
  std::set<std::uint64_t> seen;
  for (std::size_t id = 0; id < 64; ++id) {
    const DeviceSeeds s = derive_device_seeds(2026, id);
    seen.insert(s.variation);
    seen.insert(s.faults);
    seen.insert(s.drift);
    seen.insert(s.learning);
  }
  EXPECT_EQ(seen.size(), 4u * 64u);

  // And a different base seed must reshuffle every stream.
  const DeviceSeeds a = derive_device_seeds(1, 0);
  const DeviceSeeds b = derive_device_seeds(2, 0);
  EXPECT_NE(a.variation, b.variation);
  EXPECT_NE(a.faults, b.faults);
  EXPECT_NE(a.drift, b.drift);
  EXPECT_NE(a.learning, b.learning);
}

TEST(Fleet, DevicesSampleDistinctCornersAndReproduceById) {
  const Fixture fx;
  const DeviceFactory factory(fx.snn, tech::imec3nm(), {}, {});

  const std::unique_ptr<FleetDevice> d0 = factory.make_device(0);
  const std::unique_ptr<FleetDevice> d1 = factory.make_device(1);
  EXPECT_NE(d0->variation().device_res_mult, d1->variation().device_res_mult);
  EXPECT_NE(d0->variation().vth_shift_mv, d1->variation().vth_shift_mv);
  EXPECT_NE(d0->drift().permutation(), d1->drift().permutation());
  EXPECT_NE(d0->timing().read_path_ns, d1->timing().read_path_ns);

  // Same id, fresh build: bit-identical device (reproducibility).
  const std::unique_ptr<FleetDevice> d0b = factory.make_device(0);
  EXPECT_EQ(d0->variation().device_res_mult, d0b->variation().device_res_mult);
  EXPECT_EQ(d0->fault_cells(), d0b->fault_cells());
  EXPECT_EQ(d0->timing().read_path_ns, d0b->timing().read_path_ns);
}

TEST(Fleet, DegradedDeviceYieldAccounting) {
  const Fixture fx;
  FleetConfig fc = small_config();
  fc.devices = 4;
  fc.adapt_epochs = 0;          // frozen weights: fast, and drift == final
  fc.device.defect_rate = 0.25; // heavily damaged dies
  fc.accuracy_floor = 0.95;     // unreachable for a damaged random net
  const FleetSimulator sim(fx.snn, fx.test, tech::imec3nm(), fc);
  const FleetReport r = sim.run();

  std::size_t functional = 0, fits = 0;
  for (const DeviceReport& d : r.per_device) {
    EXPECT_GT(d.fault_cells, 0u);
    EXPECT_EQ(d.functional, d.accuracy_final >= fc.accuracy_floor);
    EXPECT_EQ(d.accuracy_drifted, d.accuracy_final);
    functional += d.functional ? 1 : 0;
    fits += d.timing.fits ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(r.functional_yield, static_cast<double>(functional) / 4.0);
  EXPECT_DOUBLE_EQ(r.timing_yield, static_cast<double>(fits) / 4.0);
  EXPECT_LT(r.functional_yield, 1.0);
}

TEST(Fleet, ShardClampsToDatasetSize) {
  const Fixture fx;
  FleetConfig fc = small_config();
  fc.devices = 2;
  fc.adapt_epochs = 0;
  fc.shard_inferences = 100000;  // way past the 48-sample stream
  const FleetSimulator sim(fx.snn, fx.test, tech::imec3nm(), fc);
  const FleetReport r = sim.run();
  for (const DeviceReport& d : r.per_device) {
    EXPECT_EQ(d.inferences, fx.test.size());
  }
}

TEST(Fleet, RejectsEmptyConfigurations) {
  const Fixture fx;
  FleetConfig fc = small_config();
  fc.devices = 0;
  EXPECT_THROW(FleetSimulator(fx.snn, fx.test, tech::imec3nm(), fc),
               std::invalid_argument);

  FleetConfig bad_rate = small_config();
  bad_rate.device.defect_rate = 1.5;
  EXPECT_THROW(FleetSimulator(fx.snn, fx.test, tech::imec3nm(), bad_rate),
               std::invalid_argument);
}

}  // namespace
}  // namespace esam::fleet
