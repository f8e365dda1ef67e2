// Learning-under-faults regression (ROADMAP yield story): run the online
// drift-recovery scenario on tiles whose SRAM macros carry stuck-at fault
// maps and assert the teacher still recovers accuracy -- online learning
// adapting *around* permanent defects. Combines the bench_fault_injection
// machinery with SystemSimulator::run_online.
#include <gtest/gtest.h>

#include "esam/arch/system.hpp"
#include "esam/data/drift.hpp"
#include "esam/sram/faults.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::arch {
namespace {

using util::BitVec;

constexpr std::size_t kIn = 64;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kClasses = 8;

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

/// Injects an independent per-cell stuck-at fault map into every macro.
std::size_t inject_faults(SystemSimulator& sim, double rate,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::size_t faults = 0;
  for (std::size_t t = 0; t < sim.tile_count(); ++t) {
    Tile& tile = sim.tile(t);
    for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
      for (std::size_t cg = 0; cg < tile.col_groups(); ++cg) {
        auto& macro = tile.macro(rg, cg);
        macro.apply_faults(sram::sample_fault_map(
            macro.geometry().rows, macro.geometry().cols, rate, rng));
        faults += macro.fault_count();
      }
    }
  }
  return faults;
}

OnlineTrainConfig train_config(std::size_t epochs) {
  OnlineTrainConfig cfg;
  cfg.epochs = epochs;
  cfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12,
                      .seed = 99};
  cfg.trainer.update_on_correct = true;
  return cfg;
}

TEST(LearningUnderFaults, TeacherAdaptsAroundStuckCells) {
  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  // 1 % defective cells -- far beyond a plausible yield escape, and enough
  // to pin dozens of weight bits in this small network.
  const std::size_t faults = inject_faults(sim, 0.01, 20240610);
  ASSERT_GT(faults, 0u);

  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(160, 11, inputs, labels);

  const OnlineRunResult learned =
      sim.run_online(inputs, labels, train_config(3));
  // Column updates against stuck cells are silently masked; learning must
  // still drive the faulty system well above chance (1/8).
  EXPECT_GT(learned.final_eval.accuracy, 0.65);

  const data::DriftGenerator drift(kIn, 0.5, 7);
  const std::vector<BitVec> drifted = drift.apply_all(inputs);
  const OnlineRunResult recovered =
      sim.run_online(drifted, labels, train_config(3));
  EXPECT_GT(recovered.final_eval.accuracy,
            recovered.initial_accuracy + 0.15);
  EXPECT_GT(recovered.final_eval.accuracy, 0.6);
}

TEST(LearningUnderFaults, FaultyRecoveryDeterministicAcrossEvalThreads) {
  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(60, 13, inputs, labels);

  auto run = [&](std::size_t threads) {
    SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
    inject_faults(sim, 0.01, 777);
    OnlineTrainConfig cfg = train_config(2);
    cfg.threads = threads;
    return sim.run_online(inputs, labels, cfg);
  };
  const OnlineRunResult one = run(1);
  const OnlineRunResult four = run(4);
  EXPECT_EQ(four.initial_accuracy, one.initial_accuracy);
  EXPECT_EQ(four.final_eval.predictions, one.final_eval.predictions);
  EXPECT_EQ(four.learning.column_updates, one.learning.column_updates);
}

TEST(LearningUnderFaults, ExportedNetworkKeepsRespectingStuckBits) {
  SystemSimulator sim(tech::imec3nm(), deploy_network(3), {});
  inject_faults(sim, 0.02, 4242);
  const nn::SnnNetwork before = sim.export_network();

  std::vector<BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(60, 11, inputs, labels);
  (void)sim.run_online(inputs, labels, train_config(1));

  // Read-back after adaptation: stuck-at-0 cells can never export a 1 (and
  // vice versa), no matter what the teacher wrote.
  const nn::SnnNetwork after = sim.export_network();
  for (std::size_t t = 0; t < sim.tile_count(); ++t) {
    Tile& tile = sim.tile(t);
    const nn::SnnLayer& layer = after.layers()[t];
    for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
      for (std::size_t cg = 0; cg < tile.col_groups(); ++cg) {
        const auto& macro = tile.macro(rg, cg);
        ASSERT_TRUE(macro.has_faults());
      }
    }
    // And the export is the fault-masked view: reloading it into a
    // pristine tile reproduces the observable weights exactly.
    Tile clean(tech::imec3nm(), tile.config());
    clean.load_layer(layer);
    EXPECT_EQ(nn::weight_diff_count(clean.export_layer(), layer), 0u);
  }
  // Adaptation did change observable weights somewhere.
  std::size_t diff = 0;
  for (std::size_t t = 0; t < sim.tile_count(); ++t) {
    diff += nn::weight_diff_count(after.layers()[t], before.layers()[t]);
  }
  EXPECT_GT(diff, 0u);
}

}  // namespace
}  // namespace esam::arch
