// Tests for the bitcell fault-injection extension.
#include <gtest/gtest.h>

#include "esam/arch/system.hpp"
#include "esam/sram/faults.hpp"
#include "esam/sram/macro.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::sram {
namespace {

SramMacro make_macro() {
  return SramMacro(tech::imec3nm(), BitcellSpec::of(CellKind::k1RW4R), {},
                   util::millivolts(500.0));
}

TEST(FaultMap, SampleRespectsRate) {
  util::Rng rng(1);
  const FaultMap map = sample_fault_map(128, 128, 0.01, rng);
  EXPECT_EQ(map.stuck_at_zero.size(), 128u * 128u);
  // ~164 expected faults; allow wide statistical slack.
  EXPECT_GT(map.fault_count(), 100u);
  EXPECT_LT(map.fault_count(), 240u);
  // A cell is never stuck both ways.
  EXPECT_TRUE((map.stuck_at_zero & map.stuck_at_one).none());
}

TEST(FaultMap, ZeroRateMeansNoFaults) {
  util::Rng rng(2);
  EXPECT_EQ(sample_fault_map(64, 64, 0.0, rng).fault_count(), 0u);
  EXPECT_THROW(sample_fault_map(8, 8, 1.5, rng), std::invalid_argument);
}

TEST(FaultInjection, StuckAtOneReadsOneEverywhere) {
  SramMacro m = make_macro();
  FaultMap map(128, 128);
  map.stuck_at_one.set(5 * 128 + 7);  // cell (5, 7)
  m.apply_faults(map);
  EXPECT_TRUE(m.peek(5, 7));
  EXPECT_TRUE(m.read_column(7).test(5));
  // The word the lockstep step reads row 5 of column 7 from.
  EXPECT_TRUE((m.column_words(7)[0] >> 5) & 1u);
  EXPECT_EQ(m.fault_count(), 1u);
}

TEST(FaultInjection, StuckAtZeroMasksWrites) {
  SramMacro m = make_macro();
  FaultMap map(128, 128);
  map.stuck_at_zero.set(3 * 128 + 4);
  m.apply_faults(map);
  m.poke(3, 4, true);  // write is lost
  EXPECT_FALSE(m.peek(3, 4));
  util::BitVec col(128);
  col.fill();
  m.write_column(4, col);
  EXPECT_FALSE(m.read_column(4).test(3));
  EXPECT_TRUE(m.read_column(4).test(2));  // healthy neighbours unaffected
}

TEST(FaultInjection, ClearRestoresUnderlyingContent) {
  SramMacro m = make_macro();
  m.poke(9, 9, true);
  FaultMap map(128, 128);
  map.stuck_at_zero.set(9 * 128 + 9);
  m.apply_faults(map);
  EXPECT_FALSE(m.peek(9, 9));
  m.clear_faults();
  // The underlying latch still held the value.
  EXPECT_TRUE(m.peek(9, 9));
  EXPECT_EQ(m.fault_count(), 0u);
}

TEST(FaultInjection, ShapeMismatchThrows) {
  SramMacro m = make_macro();
  EXPECT_THROW(m.apply_faults(FaultMap(64, 64)), std::invalid_argument);
}

TEST(FaultInjection, FaultFreeSystemUnchanged) {
  // Injecting a zero-fault map into every macro must not change any
  // prediction (sanity for the fault-injection bench).
  util::Rng rng(3);
  nn::BnnNetwork bnn({96, 48, 8}, rng);
  const nn::SnnNetwork snn = nn::SnnNetwork::from_bnn(bnn);
  arch::SystemSimulator sim(tech::imec3nm(), snn, {});

  std::vector<util::BitVec> inputs;
  for (int i = 0; i < 20; ++i) {
    util::BitVec v(96);
    for (std::size_t k = 0; k < 96; ++k) {
      if (rng.bernoulli(0.25)) v.set(k);
    }
    inputs.push_back(std::move(v));
  }
  const auto clean = sim.run(inputs).predictions;

  util::Rng fault_rng(4);
  for (std::size_t t = 0; t < sim.tile_count(); ++t) {
    arch::Tile& tile = sim.tile(t);
    for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
      for (std::size_t cg = 0; cg < tile.col_groups(); ++cg) {
        auto& macro = tile.macro(rg, cg);
        macro.apply_faults(sample_fault_map(
            macro.geometry().rows, macro.geometry().cols, 0.0, fault_rng));
      }
    }
  }
  EXPECT_EQ(sim.run(inputs).predictions, clean);
}

TEST(FaultInjection, HeavyFaultsDegradePredictions) {
  // With 20% defective cells the network must start misclassifying relative
  // to its own fault-free output.
  util::Rng rng(5);
  nn::BnnNetwork bnn({96, 64, 48, 8}, rng);
  const nn::SnnNetwork snn = nn::SnnNetwork::from_bnn(bnn);
  arch::SystemSimulator sim(tech::imec3nm(), snn, {});

  std::vector<util::BitVec> inputs;
  for (int i = 0; i < 40; ++i) {
    util::BitVec v(96);
    for (std::size_t k = 0; k < 96; ++k) {
      if (rng.bernoulli(0.3)) v.set(k);
    }
    inputs.push_back(std::move(v));
  }
  const auto clean = sim.run(inputs).predictions;

  util::Rng fault_rng(6);
  for (std::size_t t = 0; t < sim.tile_count(); ++t) {
    arch::Tile& tile = sim.tile(t);
    for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
      for (std::size_t cg = 0; cg < tile.col_groups(); ++cg) {
        auto& macro = tile.macro(rg, cg);
        macro.apply_faults(sample_fault_map(
            macro.geometry().rows, macro.geometry().cols, 0.20, fault_rng));
      }
    }
  }
  const auto faulty = sim.run(inputs).predictions;
  std::size_t diff = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != faulty[i]) ++diff;
  }
  EXPECT_GT(diff, 0u);
}

}  // namespace
}  // namespace esam::sram
