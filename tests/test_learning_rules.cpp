// Tests for the per-tile learning-rule engine: the Tile learning-observer
// surface (last_input/last_output/fire_vmem, export_layer), the
// SupervisedTeacherRule extraction, and the unsupervised WtaStdpRule winner
// selection.
#include <gtest/gtest.h>

#include "esam/learning/online_trainer.hpp"
#include "esam/learning/rules.hpp"
#include "esam/nn/convert.hpp"
#include "esam/sram/faults.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::learning {
namespace {

using arch::Tile;
using arch::TileConfig;
using util::BitVec;

/// 8-input / 4-neuron tile with per-column weight sums {7, 5, 1, 0} and
/// thresholds 1: an all-ones input makes columns 0 and 1 fire with margins
/// 5 and 1 -- a deterministic WTA ranking fixture.
Tile make_fixture_tile(bool output_layer = false) {
  TileConfig cfg;
  cfg.inputs = 8;
  cfg.outputs = 4;
  cfg.is_output_layer = output_layer;
  Tile tile(tech::imec3nm(), cfg);

  nn::SnnLayer layer;
  layer.weight_rows.assign(8, BitVec(4));
  const std::size_t colsum[4] = {7, 5, 1, 0};
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t r = 0; r < colsum[c]; ++r) layer.weight_rows[r].set(c);
  }
  layer.thresholds.assign(4, 1);
  layer.readout_offsets.assign(4, 0.0f);
  tile.load_layer(layer);
  return tile;
}

BitVec all_ones(std::size_t n) {
  BitVec v(n);
  v.fill();
  return v;
}

void run_inference(Tile& tile, const BitVec& input) {
  tile.start_inference(input);
  while (tile.busy()) tile.step();
}

TEST(HiddenRule, NameRoundTrip) {
  for (HiddenRule r : {HiddenRule::kNone, HiddenRule::kWtaStdp}) {
    const auto parsed = parse_hidden_rule(to_string(r));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, r);
  }
  EXPECT_FALSE(parse_hidden_rule("stdp-wta").has_value());
  EXPECT_FALSE(parse_hidden_rule("").has_value());
}

// --- Tile learning-observer surface ---------------------------------------

TEST(TileObserver, ExposesPrePostPairAndFireVmem) {
  Tile tile = make_fixture_tile();
  const BitVec input = all_ones(8);
  run_inference(tile, input);

  EXPECT_EQ(tile.last_input(), input);
  // Fire-time Vmem snapshot is taken *before* the firing reset: with all 8
  // inputs spiking, L_j = 2 * colsum_j - 8 -> {6, 2, -6, -8}.
  ASSERT_EQ(tile.fire_vmem().size(), 4u);
  EXPECT_EQ(tile.fire_vmem()[0], 6);
  EXPECT_EQ(tile.fire_vmem()[1], 2);
  EXPECT_EQ(tile.fire_vmem()[2], -6);
  EXPECT_EQ(tile.fire_vmem()[3], -8);
  // ... while the fired neurons themselves have reset.
  EXPECT_EQ(tile.output_vmem()[0], 0);
  EXPECT_EQ(tile.output_vmem()[1], 0);

  const BitVec fired = tile.take_output();
  EXPECT_TRUE(fired.test(0));
  EXPECT_TRUE(fired.test(1));
  EXPECT_FALSE(fired.test(2));
  // The fired vector stays observable after take_output consumed it.
  EXPECT_EQ(tile.last_output(), fired);
}

TEST(TileObserver, ExportLayerRoundTripsLoadLayer) {
  util::Rng rng(17);
  nn::SnnLayer layer;
  layer.weight_rows.assign(150, BitVec(20));
  for (auto& row : layer.weight_rows) {
    for (std::size_t j = 0; j < 20; ++j) {
      if (rng.bernoulli(0.4)) row.set(j);
    }
  }
  layer.thresholds.assign(20, 0);
  for (std::size_t j = 0; j < 20; ++j) {
    layer.thresholds[j] = static_cast<std::int32_t>(j) - 7;
  }
  layer.readout_offsets.assign(20, 0.0f);
  for (std::size_t j = 0; j < 20; ++j) {
    layer.readout_offsets[j] = 0.5f * static_cast<float>(j);
  }

  TileConfig cfg;
  cfg.inputs = 150;  // two row-groups: export must reassemble across macros
  cfg.outputs = 20;
  Tile tile(tech::imec3nm(), cfg);
  tile.load_layer(layer);

  const nn::SnnLayer exported = tile.export_layer();
  EXPECT_EQ(exported.weight_rows, layer.weight_rows);
  EXPECT_EQ(exported.thresholds, layer.thresholds);
  EXPECT_EQ(exported.readout_offsets, layer.readout_offsets);
  EXPECT_EQ(nn::weight_diff_count(exported, layer), 0u);

  // A flipped cell shows up as exactly one differing bit.
  tile.macro(0, 0).poke(3, 4, !layer.weight_rows[3].test(4));
  EXPECT_EQ(nn::weight_diff_count(tile.export_layer(), layer), 1u);
}

TEST(TileObserver, ExportLayerSeesFaultMaskedWeights) {
  Tile tile = make_fixture_tile();
  const nn::SnnLayer before = tile.export_layer();
  ASSERT_TRUE(before.weight_rows[0].test(0));

  // Stick the (0, 0) cell at zero: the export must report what a read
  // observes, not what was written.
  sram::FaultMap map(8, 4);
  map.stuck_at_zero.set(0);
  tile.macro(0, 0).apply_faults(map);
  const nn::SnnLayer after = tile.export_layer();
  EXPECT_FALSE(after.weight_rows[0].test(0));
  EXPECT_EQ(nn::weight_diff_count(after, before), 1u);
}

// --- WtaStdpRule -----------------------------------------------------------

TEST(WtaStdpRule, RewardsTheLargestMarginColumn) {
  Tile tile = make_fixture_tile();
  // Deterministic STDP: potentiation always, depression never -> the
  // winner's column becomes exactly the pre-spike pattern's ones.
  WtaStdpRule rule(tile, {.p_potentiation = 1.0, .p_depression = 0.0}, 1);

  run_inference(tile, all_ones(8));
  (void)tile.take_output();
  std::vector<std::size_t> winners;
  rule.resolve_forward(tile, winners);
  rule.stage_rewards(tile.last_input(), winners);
  // Staging leaves the SRAM untouched until commit().
  EXPECT_EQ(rule.pending_count(), 1u);
  EXPECT_EQ(rule.stats().column_updates, 0u);
  EXPECT_FALSE(tile.macro(0, 0).peek(7, 0));
  rule.commit();
  EXPECT_EQ(rule.pending_count(), 0u);

  EXPECT_EQ(rule.stats().column_updates, 1u);
  EXPECT_EQ(rule.stats().column_rmws, 1u);
  // Column 0 (margin 5) beat column 1 (margin 1): row 7's zero bit in
  // column 0 was potentiated, column 1 still has its two zero rows.
  EXPECT_TRUE(tile.macro(0, 0).peek(7, 0));
  EXPECT_FALSE(tile.macro(0, 0).peek(6, 1));
  EXPECT_FALSE(tile.macro(0, 0).peek(7, 1));
}

TEST(WtaStdpRule, KWinnersAndNoEventWithoutSpikes) {
  Tile tile = make_fixture_tile();
  WtaStdpRule rule(tile, {.p_potentiation = 1.0, .p_depression = 0.0}, 2);

  // No fired spikes -> no learning event.
  std::vector<std::size_t> winners;
  run_inference(tile, BitVec(8));
  (void)tile.take_output();
  rule.resolve_forward(tile, winners);
  rule.stage_rewards(tile.last_input(), winners);
  rule.commit();
  EXPECT_EQ(rule.stats().column_updates, 0u);

  // Both fired columns win when k covers them.
  run_inference(tile, all_ones(8));
  (void)tile.take_output();
  rule.resolve_forward(tile, winners);
  rule.stage_rewards(tile.last_input(), winners);
  rule.commit();
  EXPECT_EQ(rule.stats().column_updates, 2u);
  EXPECT_EQ(rule.stats().column_rmws, 2u);  // two distinct columns
  EXPECT_TRUE(tile.macro(0, 0).peek(7, 0));
  EXPECT_TRUE(tile.macro(0, 0).peek(7, 1));
}

TEST(WtaStdpRule, Validation) {
  Tile hidden = make_fixture_tile();
  EXPECT_THROW(WtaStdpRule(hidden, {}, 0), std::invalid_argument);
  Tile out = make_fixture_tile(/*output_layer=*/true);
  EXPECT_THROW(WtaStdpRule(out, {}, 1), std::invalid_argument);
  EXPECT_THROW(SupervisedTeacherRule(hidden, {}, {}), std::invalid_argument);
}

// --- SupervisedTeacherRule -------------------------------------------------

TEST(SupervisedTeacherRule, MatchesDirectRewardPunishSequence) {
  // The rule is the extracted teacher: driving it must replay exactly the
  // reward(label) + punish(winner) sequence of an OnlineLearner with the
  // same seed.
  Tile a = make_fixture_tile(/*output_layer=*/true);
  Tile b = make_fixture_tile(/*output_layer=*/true);
  const StdpConfig stdp{.p_potentiation = 0.6, .p_depression = 0.3,
                        .seed = 321};
  SupervisedTeacherRule rule(a, stdp, {});
  OnlineLearner learner(b, stdp);

  util::Rng rng(5);
  for (int step = 0; step < 20; ++step) {
    BitVec pre(8);
    for (std::size_t i = 0; i < 8; ++i) {
      if (rng.bernoulli(0.4)) pre.set(i);
    }
    const std::size_t label = step % 4;
    const std::size_t winner = (step * 7) % 4;
    rule.on_label(pre, winner, label);
    // Per-step commit replays the learner's interleaved draw order exactly.
    rule.commit();
    if (winner != label) {
      learner.reward(label, pre);
      learner.punish(winner, pre);
    }
  }
  EXPECT_EQ(rule.stats().column_updates, learner.stats().column_updates);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(a.macro(0, 0).peek(r, c), b.macro(0, 0).peek(r, c))
          << "cell " << r << "," << c;
    }
  }
}

TEST(SupervisedTeacherRule, ErrorDrivenSkipsCorrectPredictions) {
  Tile tile = make_fixture_tile(/*output_layer=*/true);
  SupervisedTeacherRule rule(tile, {.p_potentiation = 1.0}, {});
  rule.on_label(all_ones(8), /*winner=*/2, /*label=*/2);
  rule.commit();
  EXPECT_EQ(rule.stats().column_updates, 0u);

  Tile tile2 = make_fixture_tile(/*output_layer=*/true);
  SupervisedTeacherRule reinforce(tile2, {.p_potentiation = 1.0},
                                  {.update_on_correct = true});
  reinforce.on_label(all_ones(8), /*winner=*/2, /*label=*/2);
  reinforce.commit();
  EXPECT_EQ(reinforce.stats().column_updates, 1u);

  EXPECT_THROW(rule.on_label(all_ones(8), 0, 4), std::out_of_range);
}

}  // namespace
}  // namespace esam::learning
