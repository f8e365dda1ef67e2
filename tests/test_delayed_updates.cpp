// Tests for k-step delayed updates: the online-training loop
// (SystemSimulator::train_pass) at update_interval 1 must be bit-identical
// to the serial immediate-update oracle (weights, accuracy, learning
// stats), any k must be deterministic across worker counts (also on
// fault-injected arrays), the modelled train_time must follow the
// documented commit-drain model, train_pass must reject bad arguments
// before touching a tile, and the serve adaptation path's commit windows
// must match the serial oracle while stamping checkpoint lineage.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/io/checkpoint.hpp"
#include "esam/serve/server.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"
#include "train_oracle.hpp"

namespace esam::arch {
namespace {

using util::BitVec;

constexpr std::size_t kIn = 64;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kClasses = 8;

/// Fixed random hidden layer + empty output layer (the deployment scenario
/// of test_online_trainer.cpp).
nn::SnnNetwork deploy_network(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::SnnLayer hidden;
  hidden.weight_rows.assign(kIn, BitVec(kHidden));
  for (auto& row : hidden.weight_rows) {
    for (std::size_t j = 0; j < kHidden; ++j) {
      if (rng.bernoulli(0.5)) row.set(j);
    }
  }
  hidden.thresholds.assign(kHidden, 2);
  hidden.readout_offsets.assign(kHidden, 0.0f);

  nn::SnnLayer output;
  output.weight_rows.assign(kHidden, BitVec(kClasses));
  output.thresholds.assign(kClasses, 0);
  output.readout_offsets.assign(kClasses, 0.0f);
  return nn::SnnNetwork::from_layers({std::move(hidden), std::move(output)});
}

void make_samples(std::size_t count, std::uint64_t seed,
                  std::vector<BitVec>& inputs,
                  std::vector<std::uint8_t>& labels) {
  util::Rng rng(seed);
  std::vector<BitVec> protos;
  for (std::size_t c = 0; c < kClasses; ++c) {
    BitVec p(kIn);
    for (std::size_t i = 0; i < kIn; ++i) {
      if (rng.bernoulli(0.3)) p.set(i);
    }
    protos.push_back(std::move(p));
  }
  inputs.clear();
  labels.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_index(kClasses));
    BitVec s = protos[cls];
    for (std::size_t k = 0; k < s.size(); ++k) {
      if (rng.bernoulli(0.03)) s.set(k, !s.test(k));
    }
    inputs.push_back(std::move(s));
    labels.push_back(static_cast<std::uint8_t>(cls));
  }
}

OnlineTrainConfig train_config(std::size_t k, std::size_t threads,
                               bool hidden_plasticity = true) {
  OnlineTrainConfig cfg;
  cfg.epochs = 1;
  cfg.update_interval = k;
  cfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12,
                      .seed = 99};
  cfg.trainer.update_on_correct = true;
  if (hidden_plasticity) {
    cfg.trainer.hidden_rule = learning::HiddenRule::kWtaStdp;
    cfg.trainer.wta_k = 2;
    cfg.trainer.hidden_stdp =
        learning::StdpConfig{.p_potentiation = 0.1, .p_depression = 0.025,
                             .seed = 99};
  }
  cfg.threads = threads;
  return cfg;
}

/// Bit-exact weight-state fingerprint: the checkpoint encoding covers every
/// weight bit, threshold and IEEE-754 readout-offset pattern.
std::vector<std::uint8_t> weight_bytes(const SystemSimulator& sim) {
  return io::Checkpoint::from_network(sim.export_network()).encode();
}

void expect_stats_equal(const learning::LearningStats& a,
                        const learning::LearningStats& b) {
  EXPECT_EQ(a.column_updates, b.column_updates);
  EXPECT_EQ(a.column_rmws, b.column_rmws);
  EXPECT_EQ(util::in_seconds(a.time), util::in_seconds(b.time));
  EXPECT_EQ(a.energy.base(), b.energy.base());
}

TEST(DelayedUpdates, K1MatchesImmediateUpdateReference) {
  // update_interval 1 through the windowed engine vs the serial
  // immediate-update oracle: same winners, same weights bit for bit, same
  // update/RMW/time/energy accounting.
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(48, 21, inputs, labels);

  SystemSimulator batched(tech::imec3nm(), deploy_network(3), {});
  const OnlineTrainConfig cfg = train_config(1, 4);
  const OnlineRunResult r = batched.run_online(inputs, labels, cfg);

  SystemSimulator serial(tech::imec3nm(), deploy_network(3), {});
  learning::OnlineTrainer trainer(serial.tiles(), cfg.trainer);
  const std::size_t hits =
      oracle::serial_train(serial, trainer, inputs, labels, 1);

  EXPECT_EQ(weight_bytes(batched), weight_bytes(serial));
  ASSERT_EQ(r.epochs.size(), 1u);
  EXPECT_EQ(r.epochs[0].online_accuracy,
            static_cast<double>(hits) / static_cast<double>(inputs.size()));
  expect_stats_equal(r.learning, trainer.stats());
  // Immediate updates never coalesce: one physical RMW per staged update.
  EXPECT_EQ(r.learning.column_rmws, r.learning.column_updates);
}

TEST(DelayedUpdates, DeterministicAcrossWorkerCounts) {
  // k > 1 shards each window's forward passes over per-worker tile clones;
  // the whole outcome (weights, curve, stats, drain model, ledger) must be
  // bit-identical for 1 / 2 / 4 workers.
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(60, 22, inputs, labels);

  auto run = [&](std::size_t threads, SystemSimulator& sim) {
    return sim.run_online(inputs, labels, train_config(8, threads));
  };
  SystemSimulator one_sim(tech::imec3nm(), deploy_network(3), {});
  const OnlineRunResult one = run(1, one_sim);
  const std::vector<std::uint8_t> one_bytes = weight_bytes(one_sim);
  EXPECT_LT(one.learning.column_rmws, one.learning.column_updates)
      << "windows never coalesced; the sweep is not exercising k > 1";

  for (const std::size_t threads : {2u, 4u}) {
    SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
    const OnlineRunResult many = run(threads, sim);
    EXPECT_EQ(weight_bytes(sim), one_bytes) << "threads=" << threads;
    ASSERT_EQ(many.epochs.size(), one.epochs.size());
    EXPECT_EQ(many.epochs[0].online_accuracy, one.epochs[0].online_accuracy);
    EXPECT_EQ(many.epochs[0].eval_accuracy, one.epochs[0].eval_accuracy);
    EXPECT_EQ(many.epochs[0].train_cycles, one.epochs[0].train_cycles);
    EXPECT_EQ(util::in_seconds(many.epochs[0].train_time),
              util::in_seconds(one.epochs[0].train_time));
    expect_stats_equal(many.learning, one.learning);
    for (int c = 0; c < static_cast<int>(util::EnergyCategory::kCount); ++c) {
      const auto cat = static_cast<util::EnergyCategory>(c);
      EXPECT_EQ(many.final_eval.ledger.energy(cat).base(),
                one.final_eval.ledger.energy(cat).base())
          << "category " << util::to_string(cat);
    }
  }
}

TEST(DelayedUpdates, TrainTimeFollowsCommitDrainModel) {
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(64, 23, inputs, labels);

  auto run = [&](std::size_t k) {
    SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
    OnlineRunResult r = sim.run_online(inputs, labels, train_config(k, 1));
    return std::make_pair(std::move(r), util::in_seconds(sim.clock_period()));
  };

  // k = 1: every RMW sits on the inter-sample critical path, so train_time
  // is exactly the serial reference quantity train_cycles * period +
  // learning.time (the sums accumulate in different orders, hence NEAR).
  const auto [r1, period] = run(1);
  const double serial_s =
      static_cast<double>(r1.epochs[0].train_cycles) * period +
      util::in_seconds(r1.learning.time);
  EXPECT_NEAR(util::in_seconds(r1.train_time), serial_s, 1e-12 * serial_s);

  // k = 16: the commit drain is the longest per-(tile, column-group) RMW
  // queue -- never more than the serial chain, never less than the forward
  // cycles alone -- and the batched run beats the serial one outright.
  const auto [r16, period16] = run(16);
  const double forward_s =
      static_cast<double>(r16.epochs[0].train_cycles) * period16;
  EXPECT_GT(util::in_seconds(r16.train_time), forward_s);
  EXPECT_LT(util::in_seconds(r16.train_time),
            forward_s + util::in_seconds(r16.learning.time));
  EXPECT_LT(util::in_seconds(r16.train_time), util::in_seconds(r1.train_time));

  // Coalescing shows up in the physical counters too: fewer RMWs than
  // staged updates, and strictly less learning energy than the serial run
  // (energy is paid per RMW).
  EXPECT_LT(r16.learning.column_rmws, r16.learning.column_updates);
  EXPECT_LT(r16.learning.energy.base(), r1.learning.energy.base());
}

TEST(DelayedUpdates, FaultedArraysStayDeterministic) {
  // ~1% stuck-at cells in every macro: the fault-aware column updates (the
  // observable-weight rescan of OnlineLearner) must keep k-step training
  // bit-identical across worker counts.
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(48, 24, inputs, labels);

  auto run = [&](std::size_t threads, std::vector<std::uint8_t>& bytes) {
    SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
    for (std::size_t t = 0; t < sim.tile_count(); ++t) {
      Tile& tile = sim.tile(t);
      for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
        for (std::size_t cg = 0; cg < tile.col_groups(); ++cg) {
          sram::SramMacro& m = tile.macro(rg, cg);
          sram::FaultMap map(m.geometry().rows, m.geometry().cols);
          util::Rng rng(1000 + 97 * t + 13 * rg + cg);
          for (std::size_t i = 0; i < map.stuck_at_zero.size(); ++i) {
            if (rng.bernoulli(0.01)) map.stuck_at_zero.set(i);
            if (rng.bernoulli(0.01) && !map.stuck_at_zero.test(i)) {
              map.stuck_at_one.set(i);
            }
          }
          m.apply_faults(map);
        }
      }
    }
    const OnlineRunResult r =
        sim.run_online(inputs, labels, train_config(8, threads));
    bytes = weight_bytes(sim);
    return r;
  };

  std::vector<std::uint8_t> bytes1;
  std::vector<std::uint8_t> bytes4;
  const OnlineRunResult one = run(1, bytes1);
  const OnlineRunResult four = run(4, bytes4);
  EXPECT_EQ(bytes1, bytes4);
  expect_stats_equal(one.learning, four.learning);
  EXPECT_EQ(one.epochs[0].online_accuracy, four.epochs[0].online_accuracy);
  EXPECT_GT(one.learning.column_updates, 0u);
}

TEST(DelayedUpdates, TrainPassRejectsBadArgumentsBeforeTouchingTiles) {
  // Each rejected call must throw before any forward pass or commit: the
  // out-of-range label is the last sample, so a lazy check would already
  // have trained on the others.
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(8, 26, inputs, labels);
  const learning::TrainerConfig tcfg = train_config(1, 1).trainer;

  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  SystemSimulator other(tech::imec3nm(), deploy_network(3), {});
  learning::OnlineTrainer trainer(sim.tiles(), tcfg);
  learning::OnlineTrainer foreign(other.tiles(), tcfg);
  const std::vector<std::uint8_t> before = weight_bytes(sim);
  std::vector<std::uint8_t> bad_labels = labels;
  bad_labels.back() = kClasses;

  const TileStats first_tile = sim.tile(0).stats();
  EXPECT_THROW(sim.train_pass(foreign, inputs, labels, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(sim.train_pass(trainer, inputs, labels, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(sim.train_pass(trainer, inputs, bad_labels, 1, 1),
               std::invalid_argument);
  labels.pop_back();
  EXPECT_THROW(sim.train_pass(trainer, inputs, labels, 1, 1),
               std::invalid_argument);

  EXPECT_EQ(weight_bytes(sim), before);
  EXPECT_EQ(weight_bytes(other), before);
  EXPECT_EQ(trainer.pending_count(), 0u);
  EXPECT_EQ(foreign.pending_count(), 0u);
  EXPECT_EQ(trainer.stats().column_updates, 0u);
  EXPECT_EQ(foreign.stats().column_updates, 0u);
  EXPECT_EQ(sim.tile(0).stats(), first_tile);  // no forward pass ran
}

TEST(DelayedUpdates, ServeAdaptWindowMatchesOfflineReplay) {
  // The serve adaptation thread commits every update_interval samples and
  // flushes the partial window before each publish. With one worker,
  // single-request batches and sequential waited submits, the adapt buffer
  // order equals the submit order, so the serial oracle over the same
  // stream must land on the published weights exactly -- hidden WTA-STDP
  // tile and partial tail window included (8 samples, k = 3) -- and the
  // publish must be lineage-stamped with the deployment checkpoint's
  // content CRC.
  const nn::SnnNetwork snn = deploy_network(5);
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(8, 25, inputs, labels);

  serve::ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 1;
  cfg.max_delay_us = 50.0;
  cfg.adapt = true;
  cfg.adapt_batch = inputs.size();  // exactly one adaptation round
  cfg.update_interval = 3;
  cfg.trainer = train_config(cfg.update_interval, 1).trainer;
  ASSERT_EQ(cfg.trainer.hidden_rule, learning::HiddenRule::kWtaStdp);
  ASSERT_EQ(cfg.trainer.wta_k, 2u);

  const io::Checkpoint deployed = io::Checkpoint::from_network(snn);
  serve::InferenceServer server(tech::imec3nm(), {}, deployed, cfg);
  server.start();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    (void)server.submit(inputs[i], 0, labels[i]).get();
  }
  server.stop();

  EXPECT_EQ(server.stats().checkpoints_published, 1u);
  const io::Checkpoint published = server.current_checkpoint();
  EXPECT_EQ(published.meta.parent_crc, deployed.content_crc());

  // Offline oracle: same trainer config, same sample order, commits after
  // samples 3 and 6 and the tail flush after sample 8.
  SystemSimulator replay(tech::imec3nm(), snn, {});
  learning::OnlineTrainer trainer(replay.tiles(), cfg.trainer);
  oracle::serial_train(replay, trainer, inputs, labels, cfg.update_interval);
  EXPECT_EQ(trainer.pending_count(), 0u);
  EXPECT_EQ(io::Checkpoint::from_network(published.network).encode(),
            weight_bytes(replay));
  EXPECT_GT(trainer.tile_stats(0).column_updates, 0u)
      << "the hidden rule never fired; the hidden path is not covered";
  EXPECT_GT(trainer.tile_stats(1).column_updates, 0u);
}

}  // namespace
}  // namespace esam::arch
