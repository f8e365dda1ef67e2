// The fast engine (per-sample cascade walk + rebuilt schedule) against its
// differential oracle, the cycle-by-cycle lockstep sweep -- which run()
// selects whenever an observer is attached. Both model the same hardware
// schedule; these tests pin their results as bit-for-bit identical:
// predictions, cycle counts, event counts and per-category ledger energies
// (the counts priced once), across network shapes (multi-array tiles
// included), stream lengths, thread counts and SIMD backends.
#include <gtest/gtest.h>

#include "esam/arch/system.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"
#include "esam/util/simd.hpp"

namespace esam::arch {
namespace {

nn::SnnNetwork random_snn(const std::vector<std::size_t>& shape,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  nn::BnnNetwork bnn(shape, rng);
  for (auto& l : bnn.layers()) {
    for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  return nn::SnnNetwork::from_bnn(bnn);
}

std::vector<util::BitVec> random_inputs(std::size_t n, std::size_t width,
                                        std::uint64_t seed,
                                        double density = 0.25) {
  util::Rng rng(seed);
  std::vector<util::BitVec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::BitVec v(width);
    for (std::size_t k = 0; k < width; ++k) {
      if (rng.bernoulli(density)) v.set(k);
    }
    out.push_back(std::move(v));
  }
  return out;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.tile_counts, b.tile_counts);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(util::in_seconds(a.elapsed), util::in_seconds(b.elapsed));
  for (int c = 0; c < static_cast<int>(util::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<util::EnergyCategory>(c);
    EXPECT_EQ(a.ledger.energy(cat).base(), b.ledger.energy(cat).base())
        << "category " << util::to_string(cat);
  }
  EXPECT_EQ(a.ledger.total_energy().base(), b.ledger.total_energy().base());
  EXPECT_EQ(a.accuracy, b.accuracy);
}

/// The lockstep oracle: run() with an observer sweeps the whole stream
/// cycle by cycle.
RunResult lockstep_oracle(SystemSimulator& sim,
                          const std::vector<util::BitVec>& inputs,
                          const std::vector<std::uint8_t>& labels) {
  NoopObserver observer;
  return sim.run(inputs, &labels, &observer);
}

RunResult fast_run(SystemSimulator& sim,
                   const std::vector<util::BitVec>& inputs,
                   const std::vector<std::uint8_t>& labels,
                   std::size_t threads = 1) {
  return sim.run_batched(inputs, &labels, {.num_threads = threads});
}

TEST(EngineEquivalence, PipelinedMatchesSequentialExactly) {
  // Shapes covering single-tile, deep cascades and multi-array tiles (the
  // 150-wide layers split into 2x2 SRAM arrays per tile).
  const std::vector<std::vector<std::size_t>> shapes = {
      {64, 10},
      {96, 64, 32, 7},
      {150, 150, 12},
  };
  std::uint64_t seed = 301;
  for (const auto& shape : shapes) {
    const nn::SnnNetwork snn = random_snn(shape, seed++);
    SystemSimulator sim(tech::imec3nm(), snn, {});
    const auto inputs = random_inputs(60, shape.front(), seed++);
    std::vector<std::uint8_t> labels(inputs.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::uint8_t>(i % shape.back());
    }
    expect_identical(lockstep_oracle(sim, inputs, labels),
                     fast_run(sim, inputs, labels));
  }
}

TEST(EngineEquivalence, PipelinedMatchesLockstepReferenceRun) {
  // run() without an observer is the fast engine; with one it is lockstep.
  // The two must agree exactly, derived metrics included.
  const nn::SnnNetwork snn = random_snn({96, 48, 9}, 310);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(50, 96, 311);
  std::vector<std::uint8_t> labels(inputs.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint8_t>(i % 9);
  }
  NoopObserver observer;
  const RunResult reference = sim.run(inputs, &labels, &observer);
  const RunResult fast = sim.run(inputs, &labels);
  expect_identical(reference, fast);
  EXPECT_EQ(reference.throughput_inf_per_s, fast.throughput_inf_per_s);
  EXPECT_EQ(reference.average_power.base(), fast.average_power.base());
}

TEST(EngineEquivalence, EnginesAgreeForAnyThreadCount) {
  // The whole stream is one schedule however many workers walk its samples:
  // a single sample, an uneven share per worker, and a longer stream.
  const nn::SnnNetwork snn = random_snn({80, 40, 8}, 320);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  for (const std::size_t n : {1u, 23u, 100u}) {
    const auto inputs = random_inputs(n, 80, 321);
    std::vector<std::uint8_t> labels(inputs.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::uint8_t>(i % 8);
    }
    const RunResult reference = lockstep_oracle(sim, inputs, labels);
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      expect_identical(reference, fast_run(sim, inputs, labels, threads));
    }
  }
}

TEST(EngineEquivalence, EventCountsMatchLockstep) {
  // The integer record both engines are priced from, multi-array tiles
  // included, and the canonical tiles' stats it is the delta of.
  const nn::SnnNetwork snn = random_snn({150, 150, 12}, 325);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(30, 150, 326);
  NoopObserver observer;
  const TileStats before = sim.tile(1).stats();
  const RunResult lockstep = sim.run(inputs, nullptr, &observer);
  EXPECT_EQ(lockstep.tile_counts[1], sim.tile(1).stats() - before);
  const RunResult fast =
      sim.run_batched(inputs, nullptr, {.num_threads = 3});
  EXPECT_EQ(lockstep.tile_counts, fast.tile_counts);
  EXPECT_EQ(lockstep.tile_counts[0].inferences, inputs.size());
  EXPECT_GT(lockstep.tile_counts[0].row_group_grants[1], 0u);
}

TEST(EngineEquivalence, ResultsIdenticalAcrossSimdBackends) {
  // The modelled outcome must not depend on the kernel backend. Runs the
  // fast engine and the lockstep oracle under every available backend and
  // compares against the scalar result.
  const nn::SnnNetwork snn = random_snn({130, 66, 9}, 330);
  const auto inputs = random_inputs(40, 130, 331);
  std::vector<std::uint8_t> labels(inputs.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint8_t>(i % 9);
  }

  namespace simd = util::simd;
  const simd::Backend saved = simd::active_backend();
  ASSERT_TRUE(simd::set_active_backend(simd::Backend::kScalar));
  SystemSimulator scalar_sim(tech::imec3nm(), snn, {});
  const RunResult scalar = scalar_sim.run_batched(inputs, &labels, {});
  expect_identical(scalar, lockstep_oracle(scalar_sim, inputs, labels));
  for (simd::Backend b : {simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (!simd::available(b)) continue;
    ASSERT_TRUE(simd::set_active_backend(b));
    SystemSimulator sim(tech::imec3nm(), snn, {});
    expect_identical(scalar, sim.run_batched(inputs, &labels, {}));
    expect_identical(scalar, lockstep_oracle(sim, inputs, labels));
  }
  simd::set_active_backend(saved);
}

}  // namespace
}  // namespace esam::arch
