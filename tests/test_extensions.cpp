// Tests for the extensions: the HVT low-power operating point and
// multi-timestep rate-coded operation.
#include <gtest/gtest.h>

#include "esam/arch/rate_coded.hpp"
#include "esam/arch/system.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam {
namespace {

using util::BitVec;

// --- low-power operating point -----------------------------------------------

TEST(LowPower, NodeParameters) {
  const auto& lp = tech::imec3nm_low_power();
  const auto& nom = tech::imec3nm();
  EXPECT_LT(util::in_volts(lp.vdd), util::in_volts(nom.vdd));
  EXPECT_GT(util::in_volts(lp.vth), util::in_volts(nom.vth));  // HVT
  EXPECT_LT(lp.cell_leakage.base(), nom.cell_leakage.base() / 4.0);
  EXPECT_GT(lp.fo4_delay.base(), nom.fo4_delay.base());
}

TEST(LowPower, ClockDerateAppliesToTiles) {
  util::Rng rng(10);
  nn::BnnNetwork bnn({64, 8}, rng);
  const nn::SnnNetwork snn = nn::SnnNetwork::from_bnn(bnn);
  arch::SystemConfig hw;
  hw.clock_derate = 2.5;
  arch::SystemSimulator sim(tech::imec3nm_low_power(), snn, hw);
  EXPECT_NEAR(util::in_nanoseconds(sim.clock_period()), 1.23 * 2.5, 1e-9);
}

TEST(LowPower, CutsPowerAtSimilarOrBetterEnergy) {
  util::Rng rng(11);
  nn::BnnNetwork bnn({256, 128, 10}, rng);
  const nn::SnnNetwork snn = nn::SnnNetwork::from_bnn(bnn);
  std::vector<BitVec> inputs;
  for (int i = 0; i < 30; ++i) {
    BitVec v(256);
    for (std::size_t k = 0; k < 256; ++k) {
      if (rng.bernoulli(0.2)) v.set(k);
    }
    inputs.push_back(std::move(v));
  }
  arch::SystemConfig nominal_cfg;
  arch::SystemSimulator nominal(tech::imec3nm(), snn, nominal_cfg);
  const arch::RunResult rn = nominal.run(inputs);

  arch::SystemConfig lp_cfg;
  lp_cfg.vprech = tech::imec3nm_low_power().vprech_nominal;
  lp_cfg.clock_derate = 2.5;
  arch::SystemSimulator low(tech::imec3nm_low_power(), snn, lp_cfg);
  const arch::RunResult rl = low.run(inputs);

  // Predictions unchanged (bit-exact at any operating point).
  EXPECT_EQ(rl.predictions, rn.predictions);
  // Power drops by much more than the throughput derate...
  EXPECT_LT(util::in_milliwatts(rl.average_power),
            0.55 * util::in_milliwatts(rn.average_power));
  // ...because energy/inference does not get worse.
  EXPECT_LE(util::in_picojoules(rl.energy_per_inference),
            util::in_picojoules(rn.energy_per_inference));
}

// --- rate-coded multi-timestep operation -------------------------------------

nn::SnnNetwork small_snn(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::BnnNetwork bnn({48, 24, 4}, rng);
  return nn::SnnNetwork::from_bnn(bnn);
}

TEST(RateCoded, RejectsBadConfig) {
  const nn::SnnNetwork snn = small_snn(1);
  EXPECT_THROW(
      arch::RateCodedRunner(tech::imec3nm(), nn::SnnNetwork{}, {}, 4),
      std::invalid_argument);
  EXPECT_THROW(arch::RateCodedRunner(tech::imec3nm(), snn, {}, 0),
               std::invalid_argument);
  arch::RateCodedRunner runner(tech::imec3nm(), snn, {}, 4);
  arch::RateEncoder enc(1);
  EXPECT_THROW((void)runner.classify(std::vector<float>(47, 0.5f), enc),
               std::invalid_argument);
}

TEST(RateCoded, EncoderExtremes) {
  arch::RateEncoder enc(2);
  const BitVec all = enc.encode(std::vector<float>(64, 1.0f));
  EXPECT_EQ(all.count(), 64u);
  const BitVec none = enc.encode(std::vector<float>(64, 0.0f));
  EXPECT_TRUE(none.none());
}

TEST(RateCoded, EncoderRateTracksIntensity) {
  arch::RateEncoder enc(3);
  std::size_t spikes = 0;
  const std::vector<float> x(200, 0.3f);
  for (int t = 0; t < 100; ++t) spikes += enc.encode(x).count();
  EXPECT_NEAR(static_cast<double>(spikes) / (200.0 * 100.0), 0.3, 0.02);
}

TEST(RateCoded, SingleTimestepBinaryInputMatchesStaticPipeline) {
  // T=1 with {0,1} intensities is exactly the paper's static operation.
  const nn::SnnNetwork snn = small_snn(4);
  arch::RateCodedRunner runner(tech::imec3nm(), snn, {}, 1);
  util::Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<float> x(48);
    BitVec spikes(48);
    for (std::size_t i = 0; i < 48; ++i) {
      const bool on = rng.bernoulli(0.3);
      x[i] = on ? 1.0f : 0.0f;
      if (on) spikes.set(i);
    }
    arch::RateEncoder enc(6);  // deterministic at 0/1 intensities
    const arch::RateCodedResult r = runner.classify(x, enc);
    ASSERT_EQ(r.prediction, snn.predict(spikes)) << "trial " << trial;
  }
}

TEST(RateCoded, MembranesCarryAcrossTimestepsWithinSample) {
  // With constant full-rate input, T timesteps accumulate T times the
  // single-step output Vmem on the (non-firing) output layer.
  const nn::SnnNetwork snn = small_snn(7);
  arch::RateCodedRunner one(tech::imec3nm(), snn, {}, 1);
  arch::RateCodedRunner four(tech::imec3nm(), snn, {}, 4);
  const std::vector<float> x(48, 1.0f);  // deterministic spikes every step
  arch::RateEncoder enc_a(8), enc_b(8);
  const auto r1 = one.classify(x, enc_a);
  const auto r4 = four.classify(x, enc_b);
  // Deterministic input -> every timestep contributes the same hidden
  // spikes, so scores scale exactly by T.
  for (std::size_t j = 0; j < r1.scores.size(); ++j) {
    EXPECT_NEAR(r4.scores[j], 4.0f * r1.scores[j], 1e-3f) << "class " << j;
  }
  EXPECT_EQ(r4.total_input_spikes, 4u * r1.total_input_spikes);
}

TEST(RateCoded, MoreTimestepsStabilizePrediction) {
  // For a mid-gray input, the majority prediction over many 1-step runs
  // should match a single long-window run most of the time.
  const nn::SnnNetwork snn = small_snn(9);
  arch::RateCodedRunner longrun(tech::imec3nm(), snn, {}, 32);
  util::Rng rng(10);
  std::vector<float> x(48);
  for (auto& v : x) v = static_cast<float>(rng.uniform(0.0, 1.0));
  arch::RateEncoder enc(11);
  const auto ref = longrun.classify(x, enc);
  // Re-running with a different encoder seed keeps the same answer: the
  // 32-step window averages the Bernoulli noise away.
  arch::RateEncoder enc2(12);
  const auto again = longrun.classify(x, enc2);
  EXPECT_EQ(ref.prediction, again.prediction);
}

TEST(RateCoded, EnergyAccountedPerTimestep) {
  const nn::SnnNetwork snn = small_snn(13);
  arch::RateCodedRunner runner(tech::imec3nm(), snn, {}, 8);
  util::EnergyLedger ledger;
  runner.attach_ledger(&ledger);
  arch::RateEncoder enc(14);
  (void)runner.classify(std::vector<float>(48, 0.8f), enc);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kSramRead).base(), 0.0);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kNeuron).base(), 0.0);
}

}  // namespace
}  // namespace esam
