// Tests for the system-level online-training engine: OnlineTrainer seed
// derivation and determinism, data::DriftGenerator, and
// SystemSimulator::run_online (accuracy recovery, learning energy in the
// ledger, bit-identical eval phases across thread counts).
#include <gtest/gtest.h>

#include "esam/arch/system.hpp"
#include "esam/data/drift.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::arch {
namespace {

using util::BitVec;

constexpr std::size_t kIn = 64;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kClasses = 8;

/// Fixed random hidden layer + empty output layer: the online-learning
/// deployment scenario (the output layer is what the teacher fills in).
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

/// Labelled noisy prototype samples.
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

OnlineTrainConfig train_config(std::size_t epochs, std::size_t threads,
                               bool hidden_plasticity = false) {
  OnlineTrainConfig cfg;
  cfg.epochs = epochs;
  // From-scratch operating point: strong rates + reinforce correct
  // predictions (the empty output columns need the margin).
  cfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12,
                      .seed = 99};
  cfg.trainer.update_on_correct = true;
  if (hidden_plasticity) {
    cfg.trainer.hidden_rule = learning::HiddenRule::kWtaStdp;
    cfg.trainer.wta_k = 2;
    // Unsupervised hidden updates want gentler rates than the teacher.
    cfg.trainer.hidden_stdp =
        learning::StdpConfig{.p_potentiation = 0.1, .p_depression = 0.025,
                             .seed = 99};
  }
  cfg.threads = threads;
  return cfg;
}

// --- seed derivation / determinism contract --------------------------------

TEST(OnlineTrainer, DerivedSeedsAreDistinctPerTile) {
  const std::uint64_t base = 1234;  // the shared StdpConfig default
  std::vector<std::uint64_t> seeds;
  for (std::size_t t = 0; t < 16; ++t) {
    seeds.push_back(learning::derive_learner_seed(base, t));
    for (std::size_t u = 0; u < t; ++u) {
      EXPECT_NE(seeds[t], seeds[u]) << "tiles " << t << " and " << u;
    }
  }
}

TEST(OnlineTrainer, RulesUseDerivedSeeds) {
  std::vector<Tile> tiles;
  TileConfig hidden;
  hidden.inputs = kIn;
  hidden.outputs = kHidden;
  TileConfig out;
  out.inputs = kHidden;
  out.outputs = kClasses;
  out.is_output_layer = true;
  tiles.emplace_back(tech::imec3nm(), hidden);
  tiles.emplace_back(tech::imec3nm(), out);

  learning::TrainerConfig cfg;  // default StdpConfig: the shared seed 1234
  cfg.hidden_rule = learning::HiddenRule::kWtaStdp;
  learning::OnlineTrainer trainer(tiles, cfg);
  ASSERT_EQ(trainer.tile_count(), 2u);
  for (std::size_t t = 0; t < trainer.tile_count(); ++t) {
    ASSERT_NE(trainer.rule(t), nullptr);
    EXPECT_EQ(trainer.rule(t)->config().seed,
              learning::derive_learner_seed(cfg.stdp.seed, t));
  }
  // The derived seeds must not collapse back onto the shared default.
  EXPECT_NE(trainer.rule(0)->config().seed, trainer.rule(1)->config().seed);
  EXPECT_EQ(trainer.rule(0)->name(), "wta-stdp");
  EXPECT_EQ(trainer.rule(1)->name(), "teacher");

  // Without a hidden rule the hidden tile is not plastic, the output tile
  // always is.
  learning::OnlineTrainer frozen(tiles, {});
  EXPECT_EQ(frozen.rule(0), nullptr);
  ASSERT_NE(frozen.rule(1), nullptr);
  EXPECT_EQ(frozen.tile_stats(0).column_updates, 0u);
}

TEST(OnlineTrainer, RejectsPipelineWithoutOutputLayer) {
  std::vector<Tile> tiles;
  TileConfig cfg;
  cfg.inputs = kIn;
  cfg.outputs = kClasses;
  tiles.emplace_back(tech::imec3nm(), cfg);  // hidden tile only
  EXPECT_THROW(learning::OnlineTrainer(tiles, {}), std::invalid_argument);
  std::vector<Tile> empty;
  EXPECT_THROW(learning::OnlineTrainer(empty, {}), std::invalid_argument);
}

TEST(OnlineTrainer, SameSeedSameTrajectory) {
  // The documented contract: same base seed + same sample order -> bit-
  // identical weights; a different base seed diverges.
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(40, 11, inputs, labels);

  auto run = [&](std::uint64_t seed) {
    SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
    OnlineTrainConfig cfg = train_config(1, 1);
    cfg.trainer.stdp.seed = seed;
    (void)sim.run_online(inputs, labels, cfg);
    std::string bits;
    for (std::size_t r = 0; r < kHidden; ++r) {
      for (std::size_t c = 0; c < kClasses; ++c) {
        bits += sim.tile(1).macro(0, 0).peek(r, c) ? '1' : '0';
      }
    }
    return bits;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// --- DriftGenerator --------------------------------------------------------

TEST(DriftGenerator, IsAPermutationAndPreservesCounts) {
  const data::DriftGenerator drift(96, 0.5, 5);
  std::vector<bool> hit(96, false);
  for (const std::size_t p : drift.permutation()) {
    ASSERT_LT(p, 96u);
    EXPECT_FALSE(hit[p]);
    hit[p] = true;
  }
  util::Rng rng(6);
  BitVec v(96);
  for (std::size_t i = 0; i < 96; ++i) {
    if (rng.bernoulli(0.3)) v.set(i);
  }
  const BitVec d = drift.apply(v);
  EXPECT_EQ(d.count(), v.count());
}

TEST(DriftGenerator, MovesTheRequestedFraction) {
  const data::DriftGenerator half(100, 0.5, 1);
  EXPECT_EQ(half.moved_count(), 50u);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    if (half.permutation()[i] != i) ++moved;
  }
  EXPECT_EQ(moved, 50u);

  const data::DriftGenerator none(100, 0.0, 1);
  EXPECT_EQ(none.moved_count(), 0u);
  BitVec v(100);
  v.set(3);
  v.set(97);
  EXPECT_EQ(none.apply(v), v);
}

TEST(DriftGenerator, DeterministicPerSeed) {
  const data::DriftGenerator a(64, 0.4, 9);
  const data::DriftGenerator b(64, 0.4, 9);
  const data::DriftGenerator c(64, 0.4, 10);
  EXPECT_EQ(a.permutation(), b.permutation());
  EXPECT_NE(a.permutation(), c.permutation());
}

TEST(DriftGenerator, Validation) {
  EXPECT_THROW(data::DriftGenerator(0, 0.5, 1), std::invalid_argument);
  const data::DriftGenerator drift(32, 0.5, 1);
  EXPECT_THROW((void)drift.apply(BitVec(31)), std::invalid_argument);
}

// --- run_online ------------------------------------------------------------

TEST(RunOnline, RecoversAccuracyAfterDriftOnMultiTileNetwork) {
  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  ASSERT_EQ(sim.tile_count(), 2u);

  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(160, 11, inputs, labels);

  // Learn the task from scratch, then drift and recover.
  const OnlineRunResult learned =
      sim.run_online(inputs, labels, train_config(2, 1));
  EXPECT_GT(learned.final_eval.accuracy, 0.7);

  const data::DriftGenerator drift(kIn, 0.5, 7);
  const std::vector<BitVec> drifted = drift.apply_all(inputs);
  const OnlineRunResult recovered =
      sim.run_online(drifted, labels, train_config(2, 1));
  // The drift must hurt, and training must win most of it back.
  EXPECT_LT(recovered.initial_accuracy, learned.final_eval.accuracy - 0.15);
  EXPECT_GT(recovered.final_eval.accuracy, recovered.initial_accuracy + 0.2);
  EXPECT_GT(recovered.final_eval.accuracy, 0.6);

  // Curve shape: one entry per epoch, learning stats populated.
  ASSERT_EQ(recovered.epochs.size(), 2u);
  EXPECT_GT(recovered.learning.column_updates, 0u);
  EXPECT_EQ(recovered.learning.column_updates,
            recovered.epochs[0].learning.column_updates +
                recovered.epochs[1].learning.column_updates);
}

TEST(RunOnline, HiddenWtaStdpMakesEveryTilePlastic) {
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(120, 11, inputs, labels);

  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  const OnlineRunResult r =
      sim.run_online(inputs, labels, train_config(2, 1, true));

  // Per-tile stats: the hidden tile's WTA-STDP updates show up as their own
  // row, and the per-tile rows sum to the aggregate.
  ASSERT_EQ(r.tile_learning.size(), 2u);
  EXPECT_GT(r.tile_learning[0].column_updates, 0u) << "hidden tile frozen";
  EXPECT_GT(r.tile_learning[1].column_updates, 0u) << "output tile frozen";
  EXPECT_EQ(r.tile_learning[0].column_updates +
                r.tile_learning[1].column_updates,
            r.learning.column_updates);
  EXPECT_GT(r.learning.energy.base(), r.tile_learning[1].energy.base());
}

TEST(RunOnline, HiddenPlasticityStillRecovers) {
  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(160, 11, inputs, labels);

  const OnlineRunResult learned =
      sim.run_online(inputs, labels, train_config(2, 1, true));
  EXPECT_GT(learned.final_eval.accuracy, 0.7);

  const data::DriftGenerator drift(kIn, 0.5, 7);
  const std::vector<BitVec> drifted = drift.apply_all(inputs);
  const OnlineRunResult recovered =
      sim.run_online(drifted, labels, train_config(2, 1, true));
  EXPECT_GT(recovered.final_eval.accuracy,
            recovered.initial_accuracy + 0.2);
  EXPECT_GT(recovered.final_eval.accuracy, 0.6);
}

TEST(RunOnline, HeldOutEvalMeasuresGeneralization) {
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(200, 15, inputs, labels);
  const std::vector<BitVec> train_in(inputs.begin(), inputs.begin() + 150);
  const std::vector<std::uint8_t> train_lab(labels.begin(),
                                            labels.begin() + 150);
  const std::vector<BitVec> eval_in(inputs.begin() + 150, inputs.end());
  const std::vector<std::uint8_t> eval_lab(labels.begin() + 150,
                                           labels.end());

  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  const OnlineRunResult r =
      sim.run_online(train_in, train_lab, eval_in, eval_lab,
                     train_config(2, 1));
  // Every eval phase ran on the held-out stream.
  EXPECT_EQ(r.final_eval.predictions.size(), eval_in.size());
  // Training on one split generalizes to the other: the prototypes are
  // shared, so held-out accuracy must recover well above chance (1/8).
  EXPECT_GT(r.final_eval.accuracy, 0.6);
  // The network never saw the eval inputs during training; online accuracy
  // is measured on the training stream.
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_GT(r.epochs.back().online_accuracy, 0.5);
}

TEST(RunOnline, LearningEnergyLandsInTheLedger) {
  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(50, 12, inputs, labels);

  const OnlineRunResult r = sim.run_online(inputs, labels, train_config(1, 1));
  const util::Energy learn_e =
      r.final_eval.ledger.energy(util::EnergyCategory::kLearning);
  EXPECT_GT(learn_e.base(), 0.0);
  EXPECT_EQ(learn_e.base(), r.learning.energy.base());
  // energy_per_inference covers eval + training + learning: strictly more
  // than the eval-plus-training ledger would give.
  const util::Energy eval_and_train =
      r.final_eval.ledger.total_energy() - learn_e;
  EXPECT_GT(r.final_eval.energy_per_inference.base() *
                static_cast<double>(inputs.size()),
            eval_and_train.base());
  // The serial training-phase forward passes are metered: cycles counted,
  // tile dynamic energy + clock + leakage in the training ledger.
  ASSERT_EQ(r.epochs.size(), 1u);
  EXPECT_GT(r.epochs[0].train_cycles, 0u);
  EXPECT_GT(r.epochs[0].train_energy.base(), 0.0);
  EXPECT_GT(r.train_ledger.energy(util::EnergyCategory::kSramRead).base(),
            0.0);
  EXPECT_GT(r.train_ledger.energy(util::EnergyCategory::kClock).base(), 0.0);
  EXPECT_GT(r.train_ledger.energy(util::EnergyCategory::kLeakage).base(),
            0.0);
  // Learning energy is accounted once: the training ledger must not also
  // carry the column updates' transposed-port accesses.
  EXPECT_EQ(
      r.train_ledger.energy(util::EnergyCategory::kSramWrite).base(), 0.0);
  // Training wall-clock is exactly the counted serial cycles.
  EXPECT_NEAR(util::in_seconds(r.train_ledger.elapsed()),
              static_cast<double>(r.epochs[0].train_cycles) *
                  util::in_seconds(sim.clock_period()),
              1e-12);
  // And the training + learning wall-clock is part of the elapsed time:
  // the eval phase alone accounts exactly cycles * clock_period, so
  // dropping either advance_time fold would fail this.
  const double eval_s = static_cast<double>(r.final_eval.cycles) *
                        util::in_seconds(sim.clock_period());
  EXPECT_GT(util::in_seconds(r.learning.time), 0.0);
  EXPECT_NEAR(util::in_seconds(r.final_eval.elapsed),
              eval_s + util::in_seconds(r.train_ledger.elapsed()) +
                  util::in_seconds(r.learning.time),
              1e-12);
}

TEST(RunOnline, EvalPhasesBitIdenticalAcrossThreadCounts) {
  // Run the full drift-recovery scenario with hidden + output plasticity:
  // the whole curve, the per-tile update counts and every ledger category
  // must be bit-identical for 1 / 4 / 8 threads (eval and training).
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(60, 13, inputs, labels);
  const data::DriftGenerator drift(kIn, 0.5, 7);
  const std::vector<BitVec> drifted = drift.apply_all(inputs);

  auto run = [&](std::size_t threads) {
    SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
    (void)sim.run_online(inputs, labels, train_config(1, threads, true));
    return sim.run_online(drifted, labels, train_config(2, threads, true));
  };
  const OnlineRunResult one = run(1);
  for (const std::size_t threads : {4u, 8u}) {
    const OnlineRunResult many = run(threads);
    EXPECT_EQ(many.initial_accuracy, one.initial_accuracy);
    ASSERT_EQ(many.epochs.size(), one.epochs.size());
    for (std::size_t e = 0; e < one.epochs.size(); ++e) {
      EXPECT_EQ(many.epochs[e].eval_accuracy, one.epochs[e].eval_accuracy);
      EXPECT_EQ(many.epochs[e].online_accuracy,
                one.epochs[e].online_accuracy);
      EXPECT_EQ(many.epochs[e].learning.column_updates,
                one.epochs[e].learning.column_updates);
      EXPECT_EQ(many.epochs[e].train_cycles, one.epochs[e].train_cycles);
      EXPECT_EQ(many.epochs[e].train_energy.base(),
                one.epochs[e].train_energy.base());
    }
    ASSERT_EQ(many.tile_learning.size(), one.tile_learning.size());
    for (std::size_t t = 0; t < one.tile_learning.size(); ++t) {
      EXPECT_EQ(many.tile_learning[t].column_updates,
                one.tile_learning[t].column_updates);
    }
    EXPECT_EQ(many.final_eval.predictions, one.final_eval.predictions);
    EXPECT_EQ(many.final_eval.cycles, one.final_eval.cycles);
    for (int c = 0; c < static_cast<int>(util::EnergyCategory::kCount); ++c) {
      const auto cat = static_cast<util::EnergyCategory>(c);
      EXPECT_EQ(many.final_eval.ledger.energy(cat).base(),
                one.final_eval.ledger.energy(cat).base())
          << "category " << util::to_string(cat);
    }
  }
}

TEST(RunOnline, Validation) {
  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(4, 14, inputs, labels);

  EXPECT_THROW((void)sim.run_online({}, {}, {}), std::invalid_argument);
  std::vector<std::uint8_t> short_labels(labels.begin(), labels.end() - 1);
  EXPECT_THROW((void)sim.run_online(inputs, short_labels, {}),
               std::invalid_argument);
  std::vector<std::uint8_t> bad_labels = labels;
  bad_labels[0] = kClasses;  // out of range for the output layer
  EXPECT_THROW((void)sim.run_online(inputs, bad_labels, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace esam::arch
