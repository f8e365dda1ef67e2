// Tests for the Tile: decomposition into arrays/arbiters, the cycle-level
// drain behaviour, firing semantics, and the physical models.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/arch/tile.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::arch {
namespace {

nn::SnnLayer random_layer(std::size_t in, std::size_t out, std::uint64_t seed,
                          std::int32_t vth = 0) {
  util::Rng rng(seed);
  nn::SnnLayer layer;
  layer.weight_rows.assign(in, util::BitVec(out));
  layer.thresholds.assign(out, vth);
  layer.readout_offsets.assign(out, 0.0f);
  for (auto& row : layer.weight_rows) {
    for (std::size_t j = 0; j < out; ++j) {
      if (rng.bernoulli(0.5)) row.set(j);
    }
  }
  return layer;
}

TileConfig config_for(std::size_t in, std::size_t out,
                      sram::CellKind cell = sram::CellKind::k1RW4R) {
  TileConfig cfg;
  cfg.inputs = in;
  cfg.outputs = out;
  cfg.cell = cell;
  return cfg;
}

TEST(Tile, DecomposesIntoRowAndColGroups) {
  // Paper sec 4.4.2: a 768-input layer becomes 6 row-groups, each with its
  // own 128-wide arbiter.
  const Tile t768(tech::imec3nm(), config_for(768, 256));
  EXPECT_EQ(t768.row_groups(), 6u);
  EXPECT_EQ(t768.col_groups(), 2u);
  const Tile t256(tech::imec3nm(), config_for(256, 10));
  EXPECT_EQ(t256.row_groups(), 2u);
  EXPECT_EQ(t256.col_groups(), 1u);
  const Tile t128(tech::imec3nm(), config_for(128, 128));
  EXPECT_EQ(t128.row_groups(), 1u);
  EXPECT_EQ(t128.col_groups(), 1u);
}

TEST(Tile, HangDetectorThrowsTypedSimulationError) {
  // A healthy burst ends within fan-in / ports cycles, far below the
  // limit, so the limit is forced on the detector the tile and the
  // lockstep engine share.
  EXPECT_NO_THROW(check_cycle_limit(kMaxBurstCycles, kMaxBurstCycles, "x"));
  try {
    check_cycle_limit(kMaxBurstCycles + 1, kMaxBurstCycles,
                      "burst cycle limit exceeded");
    FAIL() << "the cycle limit did not fire";
  } catch (const SimulationError& e) {
    EXPECT_STREQ(e.what(), "burst cycle limit exceeded");
  }
  // Handlers written for std::logic_error still catch it.
  EXPECT_THROW(check_cycle_limit(2, 1, "deadlock"), std::logic_error);
}

TEST(Tile, RejectsEmptyShape) {
  EXPECT_THROW(Tile(tech::imec3nm(), config_for(0, 10)), std::invalid_argument);
  EXPECT_THROW(Tile(tech::imec3nm(), config_for(10, 0)), std::invalid_argument);
}

TEST(Tile, LoadLayerValidatesShape) {
  Tile t(tech::imec3nm(), config_for(128, 64));
  EXPECT_THROW(t.load_layer(random_layer(128, 65, 1)), std::invalid_argument);
  EXPECT_THROW(t.load_layer(random_layer(127, 64, 1)), std::invalid_argument);
  EXPECT_NO_THROW(t.load_layer(random_layer(128, 64, 1)));
}

TEST(Tile, LoadLayerChecksTheWholeLayerBeforeWriting) {
  // Each bad layer throws std::invalid_argument and leaves the tile as it
  // was. The bad row is the last one, in the second row group, so a check
  // made while loading would come after the first row group's macros.
  TileConfig cfg = config_for(150, 150);
  cfg.neuron.vth_bits = 4;  // Vth in [-8, 7]
  Tile t(tech::imec3nm(), cfg);
  t.load_layer(random_layer(150, 150, 21, /*vth=*/3));
  const nn::SnnLayer before = t.export_layer();
  const nn::SnnLayer good = random_layer(150, 150, 22, /*vth=*/-2);
  const auto expect_rejected = [&](auto&& spoil, const char* what) {
    nn::SnnLayer bad = good;
    spoil(bad);
    EXPECT_THROW(t.load_layer(bad), std::invalid_argument) << what;
    const nn::SnnLayer after = t.export_layer();
    EXPECT_TRUE(after.weight_rows == before.weight_rows) << what;
    EXPECT_EQ(after.thresholds, before.thresholds) << what;
    EXPECT_EQ(after.readout_offsets, before.readout_offsets) << what;
  };
  expect_rejected([](nn::SnnLayer& l) { l.readout_offsets.pop_back(); },
                  "short readout offsets");
  expect_rejected(
      [](nn::SnnLayer& l) { l.weight_rows.back() = util::BitVec(149); },
      "narrow weight row");
  expect_rejected(
      [](nn::SnnLayer& l) { l.weight_rows.back() = util::BitVec(151); },
      "wide weight row");
  expect_rejected([](nn::SnnLayer& l) { l.thresholds.back() = 8; },
                  "Vth above the register");
  expect_rejected([](nn::SnnLayer& l) { l.thresholds.back() = -9; },
                  "Vth below the register");

  // Thresholds at the register's edges fit.
  nn::SnnLayer edges = good;
  edges.thresholds.front() = 7;
  edges.thresholds.back() = -8;
  ASSERT_NO_THROW(t.load_layer(edges));
  EXPECT_EQ(t.vth(0), 7);
  EXPECT_EQ(t.vth(149), -8);
  EXPECT_EQ(t.export_layer().thresholds, edges.thresholds);
}

TEST(Tile, RegisterWidthsOutsideTwoToThirtyOneRejected) {
  // The tile and check_thresholds_fit apply the same width rule, so a
  // network is never accepted for hardware that cannot be built.
  const nn::SnnNetwork net =
      nn::SnnNetwork::from_layers({random_layer(128, 8, 1)});
  for (const unsigned bits : {0u, 1u, 32u, 40u}) {
    for (const bool vmem : {true, false}) {
      TileConfig cfg = config_for(128, 8);
      (vmem ? cfg.neuron.vmem_bits : cfg.neuron.vth_bits) = bits;
      EXPECT_THROW(Tile(tech::imec3nm(), cfg), std::invalid_argument)
          << bits << (vmem ? " Vmem" : " Vth") << " bits";
      EXPECT_THROW(check_thresholds_fit(net, cfg.neuron, "test"),
                   std::invalid_argument)
          << bits << (vmem ? " Vmem" : " Vth") << " bits";
    }
  }
  for (const unsigned bits : {2u, 31u}) {
    TileConfig cfg = config_for(128, 8);
    cfg.neuron = {.vmem_bits = bits, .vth_bits = bits};
    EXPECT_NO_THROW(Tile(tech::imec3nm(), cfg)) << bits << " bits";
    EXPECT_NO_THROW(check_thresholds_fit(net, cfg.neuron, "test"));
  }
}

TEST(Tile, ResetMembranesZeroesACarriedMembrane) {
  TileConfig cfg = config_for(128, 8);
  cfg.is_output_layer = true;
  cfg.carry_membrane = true;
  Tile t(tech::imec3nm(), cfg);
  t.load_layer(random_layer(128, 8, 23));
  util::BitVec in(128);
  for (std::size_t i = 0; i < 128; i += 3) in.set(i);
  (void)t.run_inference(in);
  t.consume_output();
  const std::vector<std::int32_t> once = t.output_vmem();
  ASSERT_TRUE(std::any_of(once.begin(), once.end(),
                          [](std::int32_t v) { return v != 0; }));
  (void)t.run_inference(in);  // carried: the same sums again
  t.consume_output();
  for (std::size_t j = 0; j < once.size(); ++j) {
    EXPECT_EQ(t.output_vmem()[j], 2 * once[j]) << "neuron " << j;
  }
  t.reset_membranes();
  EXPECT_EQ(t.output_vmem(), std::vector<std::int32_t>(8, 0));
  (void)t.run_inference(in);
  EXPECT_EQ(t.output_vmem(), once);
}

TEST(Tile, WeightsLandInTheRightMacros) {
  Tile t(tech::imec3nm(), config_for(256, 256));
  nn::SnnLayer layer = random_layer(256, 256, 7);
  t.load_layer(layer);
  util::Rng rng(8);
  for (int probe = 0; probe < 200; ++probe) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(256));
    const auto j = static_cast<std::size_t>(rng.uniform_index(256));
    const bool expected = layer.weight_rows[i].test(j);
    EXPECT_EQ(t.macro(i / 128, j / 128).peek(i % 128, j % 128), expected);
  }
}

TEST(Tile, DrainTakesCeilSpikesOverPortsCycles) {
  // One row-group, 4 ports, k spikes -> ceil(k/4) cycles of accumulation;
  // firing happens in the same cycle as the last grants.
  Tile t(tech::imec3nm(), config_for(128, 16));
  t.load_layer(random_layer(128, 16, 3, /*vth=*/1000));  // never fires
  util::BitVec in(128);
  for (std::size_t i = 0; i < 9; ++i) in.set(i * 13);
  t.start_inference(in);
  std::size_t cycles = 0;
  while (t.busy()) {
    t.step();
    ++cycles;
    ASSERT_LE(cycles, 10u);
  }
  EXPECT_EQ(cycles, 3u);  // ceil(9/4)
  EXPECT_TRUE(t.output_ready());
  EXPECT_EQ(t.stats().spikes_served, 9u);
}

TEST(Tile, MultipleRowGroupsDrainInParallel) {
  // 256 inputs = 2 arbiters; 8 spikes split 4/4 drain in one cycle at p=4,
  // but 8 spikes all in one group need two cycles.
  Tile t(tech::imec3nm(), config_for(256, 16));
  t.load_layer(random_layer(256, 16, 4, 1000));

  util::BitVec balanced(256);
  for (std::size_t i = 0; i < 4; ++i) {
    balanced.set(i);
    balanced.set(128 + i);
  }
  t.start_inference(balanced);
  t.step();
  EXPECT_FALSE(t.busy());  // drained in one cycle
  (void)t.take_output();

  util::BitVec skewed(256);
  for (std::size_t i = 0; i < 8; ++i) skewed.set(i);  // all in group 0
  t.start_inference(skewed);
  t.step();
  EXPECT_TRUE(t.busy());
  t.step();
  EXPECT_FALSE(t.busy());
}

TEST(Tile, EmptyInputFiresImmediately) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 5, /*vth=*/0));
  t.start_inference(util::BitVec(128));
  t.step();
  EXPECT_FALSE(t.busy());
  EXPECT_TRUE(t.output_ready());
  // Vth = 0 <= Vmem = 0: every neuron fires.
  EXPECT_EQ(t.take_output().count(), 8u);
}

TEST(Tile, AccumulationMatchesReferenceModel) {
  nn::SnnLayer layer = random_layer(256, 256, 11, /*vth=*/2000);
  // Large Vth: no firing, so output_vmem is the raw accumulation.
  TileConfig cfg = config_for(256, 256);
  cfg.is_output_layer = true;
  Tile out_tile(tech::imec3nm(), cfg);
  out_tile.load_layer(layer);

  util::Rng rng(12);
  util::BitVec spikes(256);
  for (std::size_t i = 0; i < 256; ++i) {
    if (rng.bernoulli(0.3)) spikes.set(i);
  }
  out_tile.start_inference(spikes);
  while (out_tile.busy()) out_tile.step();

  const auto expected =
      nn::SnnNetwork::from_layers({layer}).accumulate(0, spikes);
  const auto got = out_tile.output_vmem();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    ASSERT_EQ(got[j], expected[j]) << "neuron " << j;
  }
}

TEST(Tile, StartWhileBusyOrOutputPendingThrows) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 6, 1000));
  util::BitVec in(128);
  in.set(0);
  in.set(64);
  t.start_inference(in);
  EXPECT_THROW(t.start_inference(in), std::logic_error);
  t.step();  // drains (2 spikes < 4 ports) and fires
  ASSERT_TRUE(t.output_ready());
  EXPECT_THROW(t.start_inference(in), std::logic_error);
  (void)t.take_output();
  EXPECT_NO_THROW(t.start_inference(in));
}

TEST(Tile, TakeOutputGuards) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 7, 1000));
  EXPECT_THROW((void)t.take_output(), std::logic_error);
  TileConfig cfg = config_for(128, 8);
  cfg.is_output_layer = true;
  Tile out_tile(tech::imec3nm(), cfg);
  out_tile.load_layer(random_layer(128, 8, 7, 1000));
  out_tile.start_inference(util::BitVec(128));
  out_tile.step();
  EXPECT_THROW((void)out_tile.take_output(), std::logic_error);  // use Vmem
  EXPECT_NO_THROW(out_tile.consume_output());
}

TEST(Tile, ClockPeriodFollowsTable2) {
  for (std::size_t i = 0; i < 5; ++i) {
    const Tile t(tech::imec3nm(), config_for(128, 8, sram::kAllCellKinds[i]));
    const double expected = std::max(tech::calib::kTable2ArbiterNs[i],
                                     tech::calib::kTable2SramNeuronNs[i]);
    EXPECT_NEAR(util::in_nanoseconds(t.clock_period()), expected, 1e-9)
        << sram::to_string(sram::kAllCellKinds[i]);
  }
}

TEST(Tile, EnergyPostedDuringExecution) {
  Tile t(tech::imec3nm(), config_for(128, 128));
  t.load_layer(random_layer(128, 128, 8, 1000));
  util::EnergyLedger ledger;
  t.attach_ledger(&ledger);
  util::BitVec in(128);
  for (std::size_t i = 0; i < 12; ++i) in.set(i * 10);
  t.start_inference(in);
  while (t.busy()) t.step();
  EXPECT_GT(ledger.energy(util::EnergyCategory::kSramRead).base(), 0.0);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kArbiter).base(), 0.0);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kNeuron).base(), 0.0);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kFabric).base(), 0.0);
}

TEST(Tile, AttachedLedgerPostsPricedStatsDelta) {
  // One inference on a 2x2-array tile: the attached ledger receives exactly
  // price() of the stats the inference added, in every category.
  Tile t(tech::imec3nm(), config_for(150, 150));
  t.load_layer(random_layer(150, 150, 8, 1001));
  util::BitVec warm(150);
  warm.set(7);
  (void)t.run_inference(warm);  // stats before the attach must not count
  (void)t.take_output();
  util::EnergyLedger ledger;
  t.attach_ledger(&ledger);
  const TileStats before = t.stats();
  util::BitVec in(150);
  for (std::size_t i = 0; i < 150; i += 4) in.set(i);
  (void)t.run_inference(in);
  const TileStats delta = t.stats() - before;
  const util::EnergyLedger priced = t.price(delta);
  for (int c = 0; c < static_cast<int>(util::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<util::EnergyCategory>(c);
    EXPECT_EQ(ledger.energy(cat).base(), priced.energy(cat).base())
        << util::to_string(cat);
  }
  EXPECT_GT(priced.energy(util::EnergyCategory::kClock).base(), 0.0);

  // The counts behind the price agree with each other.
  EXPECT_EQ(delta.inferences, 1u);
  EXPECT_EQ(delta.input_spikes, in.count());
  EXPECT_EQ(delta.spikes_served, in.count());
  EXPECT_EQ(delta.row_reads, delta.spikes_served * t.col_groups());
  std::uint64_t grants = 0, weighted = 0, cycles = 0, arb_grants = 0,
                arb_active = 0;
  for (const std::uint64_t g : delta.row_group_grants) grants += g;
  for (std::size_t g = 0; g < delta.grant_cycles.size(); ++g) {
    weighted += g * delta.grant_cycles[g];
    cycles += delta.grant_cycles[g];
  }
  const std::size_t stride = 5;  // 1RW+4R: grants 0..4 per row group
  for (std::size_t i = 0; i < delta.arbiter_cycles.size(); ++i) {
    arb_grants += (i % stride) * delta.arbiter_cycles[i];
    if (i % stride != 0) arb_active += delta.arbiter_cycles[i];
  }
  EXPECT_EQ(grants, delta.spikes_served);
  EXPECT_EQ(weighted, delta.spikes_served);
  EXPECT_EQ(arb_grants, delta.spikes_served);
  EXPECT_EQ(arb_active, delta.active_row_group_cycles);
  EXPECT_LE(cycles, delta.busy_cycles);

  // Detached, the next inference posts nothing.
  (void)t.take_output();
  t.attach_ledger(nullptr);
  const util::EnergyLedger after = ledger;
  (void)t.run_inference(in);
  EXPECT_EQ(ledger.total_energy().base(), after.total_energy().base());
}

TEST(Tile, PriceChargesEachEventItsUnitEnergy) {
  // One event at a time on a 2x2-array 1RW+4R tile (column groups of 128
  // and 22), each priced against the circuit model it stands for.
  const TileConfig cfg = config_for(150, 150);
  const Tile t(tech::imec3nm(), cfg);
  const TileStats zero = t.stats();  // zero counts, histograms sized
  using util::EnergyCategory;
  auto only = [&](auto&& set, EnergyCategory cat) {
    TileStats s = zero;
    set(s);
    const util::EnergyLedger l = t.price(s);
    for (int c = 0; c < static_cast<int>(EnergyCategory::kCount); ++c) {
      const auto other = static_cast<EnergyCategory>(c);
      if (other == cat) continue;
      EXPECT_EQ(l.energy(other).base(), 0.0) << util::to_string(other);
    }
    return l.energy(cat).base();
  };
  const neuron::NeuronArrayModel neurons(tech::imec3nm(), cfg.neuron, 4);
  const arbiter::ArbiterTimingModel arb(tech::imec3nm(), 128, 4);

  EXPECT_EQ(only([](TileStats& s) { s.inferences = 1; },
                 EnergyCategory::kNeuron),
            (neurons.compare_energy() * 150.0).base());
  EXPECT_EQ(only([](TileStats& s) { s.grant_cycles[6] = 1; },
                 EnergyCategory::kNeuron),
            (neurons.accumulate_energy(6) * 150.0).base());
  EXPECT_EQ(only([](TileStats& s) { s.arbiter_cycles[9 * 5 + 4] = 1; },
                 EnergyCategory::kArbiter),
            arb.cycle_energy(9, 4).base());
  // A grant reads one row of both column-group arrays, each with its
  // row decoder/driver (35 fJ) and port latch (0.75 fJ per bit).
  util::Energy read{};
  for (std::size_t cg = 0; cg < 2; ++cg) {
    const double bits = cg == 0 ? 128.0 : 22.0;
    read += t.macro(1, cg).inference_read_energy() +
            util::femtojoules(35.0 + 0.75 * bits);
  }
  EXPECT_EQ(only([](TileStats& s) { s.row_group_grants[1] = 1; },
                 EnergyCategory::kSramRead),
            read.base());
  // Macro control: 150 fJ per array with a grant in the cycle.
  EXPECT_EQ(only([](TileStats& s) { s.active_row_group_cycles = 1; },
                 EnergyCategory::kClock),
            util::femtojoules(300.0).base());
  // Fabric: 6 fJ per received spike.
  EXPECT_EQ(only([](TileStats& s) { s.input_spikes = 10; },
                 EnergyCategory::kFabric),
            util::femtojoules(60.0).base());
}

TEST(Tile, AreaAndLeakageScaleWithCell) {
  const Tile base(tech::imec3nm(), config_for(128, 128, sram::CellKind::k1RW));
  const Tile four(tech::imec3nm(),
                  config_for(128, 128, sram::CellKind::k1RW4R));
  EXPECT_GT(util::in_square_microns(four.area()),
            util::in_square_microns(base.area()) * 1.8);
  EXPECT_GT(four.leakage().base(), base.leakage().base());
  EXPECT_GT(four.flop_count(), base.flop_count());
}

TEST(Tile, StatsAccumulate) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 9, 1000));
  util::BitVec in(128);
  in.set(0);
  t.start_inference(in);
  while (t.busy()) t.step();
  (void)t.take_output();
  t.start_inference(in);
  while (t.busy()) t.step();
  EXPECT_EQ(t.stats().inferences, 2u);
  EXPECT_EQ(t.stats().spikes_served, 2u);
  EXPECT_EQ(t.stats().row_reads, 2u);
  EXPECT_GE(t.stats().busy_cycles, 2u);
}

// Tiles that step (narrow Vmem, carried membranes) clamp every cycle's +-1
// sum to the Vmem rails, so the grant order and the cycle boundaries shape
// Vmem. This pins Tile::step against a per-cycle reference that reads the
// weights cell by cell (SramMacro::peek): each cycle, every row group grants
// its lowest `ports` pending rows, and each neuron adds its clamped sum.
TEST(Tile, SaturatingStepMatchesPerCycleReference) {
  constexpr std::size_t kIn = 300;
  constexpr std::size_t kOut = 140;
  constexpr std::int32_t kMax = 31;  // vmem_bits = 6
  constexpr std::int32_t kMin = -32;
  for (const sram::CellKind cell : {sram::CellKind::k1RW,
                                    sram::CellKind::k1RW4R}) {
    for (const bool carry : {false, true}) {
      util::Rng rng(carry ? 41 : 40);
      TileConfig cfg = config_for(kIn, kOut, cell);
      cfg.neuron.vmem_bits = 6;
      cfg.carry_membrane = carry;
      Tile tile(tech::imec3nm(), cfg);
      ASSERT_FALSE(tile.closed_form());
      // Early rows of a row group mostly store 1 and late rows mostly 0, so
      // Vmem climbs into the upper rail before it falls: clamping once per
      // burst instead of per cycle ends elsewhere.
      nn::SnnLayer layer;
      layer.weight_rows.assign(kIn, util::BitVec(kOut));
      for (std::size_t i = 0; i < kIn; ++i) {
        const double p1 = i % cfg.max_array_dim < 64 ? 0.85 : 0.15;
        for (std::size_t j = 0; j < kOut; ++j) {
          if (rng.bernoulli(j % 3 == 0 ? 0.5 : p1)) {
            layer.weight_rows[i].set(j);
          }
        }
      }
      // Thresholds at the rails too: a Vmem clamped at a rail is compared
      // against a threshold at that rail.
      for (std::size_t j = 0; j < kOut; ++j) {
        const auto vth = static_cast<std::int32_t>(rng.uniform_index(41)) - 20;
        layer.thresholds.push_back(j % 7 == 1 ? kMax : j % 7 == 2 ? kMin : vth);
      }
      layer.readout_offsets.assign(kOut, 0.0f);
      tile.load_layer(layer);
      for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
        for (std::size_t cg = 0; cg < tile.col_groups(); ++cg) {
          sram::SramMacro& m = tile.macro(rg, cg);
          if (rng.bernoulli(0.5)) {
            m.apply_faults(sram::sample_fault_map(
                m.geometry().rows, m.geometry().cols, 0.05, rng));
          }
        }
      }
      const std::size_t ports =
          std::max<std::size_t>(sram::BitcellSpec::of(cell).read_ports, 1);
      const auto weight = [&](std::size_t i, std::size_t j) {
        const std::size_t dim = cfg.max_array_dim;
        return tile.macro(i / dim, j / dim).peek(i % dim, j % dim);
      };

      std::vector<std::int32_t> vmem(kOut, 0);
      for (int inference = 0; inference < 8; ++inference) {
        util::BitVec in(kIn);
        const double density = inference == 0 ? 0.0 : 0.6;
        for (std::size_t i = 0; i < kIn; ++i) {
          if (rng.bernoulli(density)) in.set(i);
        }
        // Reference burst: per row group, the pending rows in index order.
        if (!carry) std::fill(vmem.begin(), vmem.end(), 0);
        std::vector<std::vector<std::size_t>> pending(tile.row_groups());
        in.for_each_set([&](std::size_t i) {
          pending[i / cfg.max_array_dim].push_back(i);
        });
        std::vector<std::size_t> next(tile.row_groups(), 0);
        std::uint64_t cycles = 0;
        bool drained = false;
        while (!drained) {
          ++cycles;
          std::vector<std::int32_t> delta(kOut, 0);
          drained = true;
          for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
            for (std::size_t k = 0; k < ports && next[rg] < pending[rg].size();
                 ++k) {
              const std::size_t i = pending[rg][next[rg]++];
              for (std::size_t j = 0; j < kOut; ++j) {
                delta[j] += weight(i, j) ? 1 : -1;
              }
            }
            if (next[rg] < pending[rg].size()) drained = false;
          }
          for (std::size_t j = 0; j < kOut; ++j) {
            vmem[j] = std::clamp(vmem[j] + delta[j], kMin, kMax);
          }
        }
        const std::vector<std::int32_t> fire_vmem = vmem;
        util::BitVec fired(kOut);
        for (std::size_t j = 0; j < kOut; ++j) {
          if (vmem[j] >= layer.thresholds[j]) {
            fired.set(j);
            vmem[j] = 0;
          }
        }

        ASSERT_EQ(tile.run_inference(in), cycles) << "inference " << inference;
        ASSERT_EQ(tile.fire_vmem(), fire_vmem) << "inference " << inference;
        ASSERT_EQ(tile.take_output(), fired) << "inference " << inference;
        // A learner-style column write between inferences: the reference
        // re-reads every weight through peek.
        sram::SramMacro& m = tile.macro(rng.uniform_index(tile.row_groups()),
                                        rng.uniform_index(tile.col_groups()));
        util::BitVec col(m.geometry().rows);
        for (std::size_t r = 0; r < col.size(); ++r) {
          if (rng.bernoulli(0.5)) col.set(r);
        }
        m.write_column(rng.uniform_index(m.geometry().cols), col);
      }
    }
  }
}

}  // namespace
}  // namespace esam::arch
