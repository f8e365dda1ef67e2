// Tests for the multi-threaded simulation engine: a run sharded over any
// number of workers must be bit-for-bit identical to the single-threaded run
// and to the observed lockstep run() (predictions, cycle counts, event
// counts, priced ledger energies), tiles must deep-clone, and the engine
// must reject malformed input like run() does. Also covers the worker pool
// every sharded loop shares, util::parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "esam/arch/system.hpp"
#include "esam/data/dataset.hpp"
#include "esam/fleet/fleet.hpp"
#include "esam/learning/online_learner.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/parallel.hpp"
#include "esam/util/rng.hpp"

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

/// Exact (bit-level) equality of two run results, including the per-category
/// ledger energies. Doubles are compared with == on purpose: the energies
/// price integer counts and cycles once, so they must agree exactly.
void expect_same_ledger(const util::EnergyLedger& a,
                        const util::EnergyLedger& b) {
  for (int c = 0; c < static_cast<int>(util::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<util::EnergyCategory>(c);
    EXPECT_EQ(a.energy(cat).base(), b.energy(cat).base())
        << "category " << util::to_string(cat);
  }
  EXPECT_EQ(a.total_energy().base(), b.total_energy().base());
  EXPECT_EQ(util::in_seconds(a.elapsed()), util::in_seconds(b.elapsed()));
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

TEST(Parallel, MultiThreadMatchesSingleThreadExactly) {
  const nn::SnnNetwork snn = random_snn({96, 64, 32, 7}, 201);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(100, 96, 202);

  const RunResult single = sim.run_batched(inputs, nullptr, {});
  EXPECT_EQ(single.threads, 1u);

  for (std::size_t threads : {2u, 4u, 8u}) {
    const RunResult multi =
        sim.run_batched(inputs, nullptr, {.num_threads = threads});
    expect_identical(single, multi);
  }
}

TEST(Parallel, LabelsAndAccuracyIdenticalAcrossThreadCounts) {
  const nn::SnnNetwork snn = random_snn({64, 32, 4}, 210);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(60, 64, 211);
  std::vector<std::uint8_t> labels(60);
  for (std::size_t i = 0; i < 60; ++i) {
    labels[i] = static_cast<std::uint8_t>(i % 4);
  }
  RunConfig one{.num_threads = 1};
  RunConfig eight{.num_threads = 8};
  const RunResult a = sim.run_batched(inputs, &labels, one);
  const RunResult b = sim.run_batched(inputs, &labels, eight);
  expect_identical(a, b);
}

TEST(Parallel, PredictionsMatchLegacySingleStreamRun) {
  // Sharding never changes what an inference computes -- predictions must
  // match the continuous run.
  const nn::SnnNetwork snn = random_snn({96, 48, 5}, 220);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(70, 96, 221);
  const RunResult stream = sim.run(inputs);
  const RunResult batched =
      sim.run_batched(inputs, nullptr, {.num_threads = 4});
  EXPECT_EQ(stream.predictions, batched.predictions);
}

TEST(Parallel, MatchesSoftwareReferenceUnderThreads) {
  const nn::SnnNetwork snn = random_snn({128, 64, 9}, 230);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(48, 128, 231);
  const RunResult r =
      sim.run_batched(inputs, nullptr, {.num_threads = 3});
  ASSERT_EQ(r.predictions.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(r.predictions[i], snn.predict(inputs[i])) << "inference " << i;
  }
}

TEST(Parallel, RepeatedRunsAreDeterministic) {
  // Worker pipelines are cloned per run; state never bleeds across calls.
  const nn::SnnNetwork snn = random_snn({96, 48, 8}, 250);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(64, 96, 251);
  const RunConfig cfg{.num_threads = 4};
  const RunResult first = sim.run_batched(inputs, nullptr, cfg);
  const RunResult second = sim.run_batched(inputs, nullptr, cfg);
  expect_identical(first, second);
}

TEST(Parallel, RejectsBadInputLikeRun) {
  const nn::SnnNetwork snn = random_snn({32, 8}, 270);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  EXPECT_THROW((void)sim.run_batched({}), std::invalid_argument);
  const auto inputs = random_inputs(4, 32, 271);
  std::vector<std::uint8_t> labels(3, 0);
  EXPECT_THROW((void)sim.run_batched(inputs, &labels), std::invalid_argument);
}

TEST(Parallel, LearnedWeightsVisibleToClonedWorkerPipelines) {
  // The learning/batched-engine interplay: OnlineLearner mutates the
  // canonical tiles' SRAM in place, so the deep-cloned worker pipelines of
  // the next run_batched must see the new weights, and run()/run_batched()
  // must agree on the post-learning predictions.
  const nn::SnnNetwork snn = random_snn({64, 32, 6}, 290);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(48, 64, 291);
  const RunConfig cfg{.num_threads = 4};
  const RunResult before = sim.run_batched(inputs, nullptr, cfg);

  // Deterministically rewrite the output tile's weight columns: column j
  // becomes exactly the per-column spike pattern (p_pot = p_dep = 1).
  learning::OnlineLearner learner(
      sim.tile(1), {.p_potentiation = 1.0, .p_depression = 1.0, .seed = 3});
  for (std::size_t j = 0; j < 6; ++j) {
    util::BitVec pre(32);
    for (std::size_t i = j; i < 32; i += j + 2) pre.set(i);
    learner.reward(j, pre);
  }

  const RunResult stream = sim.run(inputs);
  const RunResult batched = sim.run_batched(inputs, nullptr, cfg);
  EXPECT_EQ(stream.predictions, batched.predictions);
  EXPECT_NE(batched.predictions, before.predictions);  // weights did change
  for (const std::size_t threads : {1u, 8u}) {
    const RunResult again =
        sim.run_batched(inputs, nullptr, {.num_threads = threads});
    expect_identical(batched, again);
  }
}

TEST(Parallel, TileDeepCopyIsIndependent) {
  const nn::SnnNetwork snn = random_snn({32, 16}, 280);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  Tile copy = sim.tile(0);

  // Flip a weight bit in the original; the copy must keep the old value.
  const bool before = copy.macro(0, 0).peek(3, 5);
  sim.tile(0).macro(0, 0).poke(3, 5, !before);
  EXPECT_EQ(copy.macro(0, 0).peek(3, 5), before);
  EXPECT_EQ(sim.tile(0).macro(0, 0).peek(3, 5), !before);

  // And the copy must not post into the original's ledger.
  util::EnergyLedger ledger;
  sim.tile(0).attach_ledger(&ledger);
  Tile detached = sim.tile(0);
  const util::BitVec spikes = random_inputs(1, 32, 281)[0];
  detached.start_inference(spikes);
  while (detached.busy()) detached.step();
  EXPECT_EQ(ledger.total_energy().base(), 0.0);
}

TEST(Parallel, RunBatchedEqualsLockstepRunForAnyThreadCount) {
  // One stream, one schedule, for every worker count: predictions, cycles,
  // event counts and the ledger equal the observed lockstep run(), and the
  // ledger is those counts priced once plus clock and leakage over the
  // cycles. 23 samples leave 2, 3 and 8 workers an uneven share; 1 sample
  // caps every worker count at one.
  const nn::SnnNetwork snn = random_snn({150, 40, 7}, 295);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  for (const std::size_t n : {1u, 23u, 100u}) {
    const auto inputs = random_inputs(n, 150, 296);
    std::vector<std::uint8_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<std::uint8_t>(i % 7);
    }
    NoopObserver observer;
    const RunResult lockstep = sim.run(inputs, &labels, &observer);
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      const TileStats tile0_before = sim.tile(0).stats();
      const RunResult r =
          sim.run_batched(inputs, &labels, {.num_threads = threads});
      expect_identical(lockstep, r);
      expect_same_ledger(r.ledger, sim.price(r.tile_counts, r.cycles));
      EXPECT_EQ(r.tile_counts[0].inferences, n);
      EXPECT_EQ(r.threads, std::min<std::size_t>(threads, n));
      if (r.threads == 1) {
        // One worker runs everything on the canonical tiles.
        EXPECT_EQ(r.tile_counts[0], sim.tile(0).stats() - tile0_before);
      }
    }
  }
}

TEST(Parallel, HalvesSumToTheWholeStream) {
  // Two runs over the halves gather exactly the counts of one run over the
  // whole stream, and those summed counts price to the whole run's ledger.
  const nn::SnnNetwork snn = random_snn({96, 64, 32, 7}, 297);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(31, 96, 298);
  const std::vector<util::BitVec> head(inputs.begin(), inputs.begin() + 15);
  const std::vector<util::BitVec> tail(inputs.begin() + 15, inputs.end());

  const RunResult whole = sim.run_batched(inputs);
  std::vector<TileStats> halves(sim.tile_count());
  for (const auto* part : {&head, &tail}) {
    const RunResult r =
        sim.run_batched(*part, nullptr, {.num_threads = 2});
    for (std::size_t t = 0; t < halves.size(); ++t) {
      halves[t] += r.tile_counts[t];
    }
  }
  EXPECT_EQ(halves, whole.tile_counts);
  expect_same_ledger(sim.price(halves, whole.cycles), whole.ledger);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " workers=" << workers);
      std::vector<std::atomic<int>> hits(n);
      std::atomic<std::size_t> bad_worker{0};
      const std::size_t resolved = util::resolve_workers(workers, n);
      util::parallel_for(n, workers, [&](std::size_t w, std::size_t i) {
        if (w >= resolved) ++bad_worker;
        ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
      EXPECT_EQ(bad_worker.load(), 0u);
    }
  }
}

TEST(ParallelFor, RethrowsOnlyAfterEveryWorkerJoined) {
  std::atomic<int> in_flight{0};
  std::atomic<int> started{0};
  bool caught = false;
  try {
    util::parallel_for(64, 4, [&](std::size_t, std::size_t i) {
      ++in_flight;
      ++started;
      if (i == 5) {
        --in_flight;
        throw std::runtime_error("index 5");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --in_flight;
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "index 5");
    // Every call that started has returned: no worker outlives the throw.
    EXPECT_EQ(in_flight.load(), 0);
  }
  EXPECT_TRUE(caught);
  EXPECT_GE(started.load(), 6);
}

TEST(ParallelFor, GarbageWorkerCountIsClampedAndCompletes) {
  constexpr std::size_t kHuge = SIZE_MAX;
  EXPECT_EQ(util::resolve_workers(kHuge, 1000), util::kMaxWorkers);
  EXPECT_EQ(util::resolve_workers(kHuge, 3), 3u);
  EXPECT_GE(util::resolve_workers(0, 1000), 1u);
  std::atomic<std::size_t> sum{0};
  util::parallel_for(300, kHuge,
                     [&](std::size_t, std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 300u * 299u / 2u);
}

TEST(ParallelFor, FleetWithGarbageWorkerCountMatchesSerial) {
  util::Rng rng(77);
  const nn::SnnNetwork snn =
      nn::SnnNetwork::from_bnn(nn::BnnNetwork({768, 16, 10}, rng));
  const data::PreparedDataset test = data::load_default_split(0, 48, 7).test;
  fleet::FleetConfig fc;
  fc.devices = 5;
  fc.shard_inferences = 16;
  fc.adapt_epochs = 1;
  fc.update_interval = 2;

  fc.workers = 1;
  const fleet::FleetReport a =
      fleet::FleetSimulator(snn, test, tech::imec3nm(), fc).run();
  fc.workers = SIZE_MAX;
  const fleet::FleetReport b =
      fleet::FleetSimulator(snn, test, tech::imec3nm(), fc).run();

  ASSERT_EQ(a.per_device.size(), b.per_device.size());
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    const fleet::DeviceReport& x = a.per_device[i];
    const fleet::DeviceReport& y = b.per_device[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.fault_cells, y.fault_cells);
    EXPECT_EQ(x.column_updates, y.column_updates);
    EXPECT_EQ(x.accuracy_clean, y.accuracy_clean);
    EXPECT_EQ(x.accuracy_drifted, y.accuracy_drifted);
    EXPECT_EQ(x.accuracy_final, y.accuracy_final);
    EXPECT_EQ(x.energy_per_inf_pj, y.energy_per_inf_pj);
  }
  EXPECT_EQ(a.timing_yield, b.timing_yield);
  EXPECT_EQ(a.functional_yield, b.functional_yield);
}

}  // namespace
}  // namespace esam::arch
