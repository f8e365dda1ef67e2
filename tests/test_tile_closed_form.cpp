// Differential property test of the closed-form tile burst: on random
// shapes, cells, array sizes, fault maps and weight mutations, every
// Tile::run_inference must leave exactly the state, outputs and event counts
// that start_inference + step() leave on a copy of the same tile.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "esam/arch/tile.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::arch {
namespace {

using util::BitVec;
using util::Rng;

BitVec random_bits(std::size_t n, double density, Rng& rng) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(density)) v.set(i);
  }
  return v;
}

nn::SnnLayer random_layer(std::size_t in, std::size_t out, Rng& rng) {
  nn::SnnLayer layer;
  layer.weight_rows.reserve(in);
  for (std::size_t i = 0; i < in; ++i) {
    layer.weight_rows.push_back(random_bits(out, 0.5, rng));
  }
  // Thresholds around the expected Vmem spread, so some neurons fire.
  const auto spread = static_cast<std::int64_t>(in / 8 + 1);
  for (std::size_t j = 0; j < out; ++j) {
    layer.thresholds.push_back(static_cast<std::int32_t>(
        static_cast<std::int64_t>(rng.uniform_index(2 * spread + 1)) -
        spread));
    layer.readout_offsets.push_back(
        static_cast<float>(rng.uniform_index(9)) - 4.0f);
  }
  return layer;
}

sram::FaultMap random_faults(const sram::SramMacro& m, Rng& rng) {
  return sram::sample_fault_map(m.geometry().rows, m.geometry().cols, 0.05,
                                rng);
}

/// One random mutation of one random macro, through the public port or
/// setup path a learner, a fleet die or a clone resync would use.
void mutate(Tile& tile, Rng& rng) {
  const std::size_t rg = rng.uniform_index(tile.row_groups());
  const std::size_t cg = rng.uniform_index(tile.col_groups());
  sram::SramMacro& m = tile.macro(rg, cg);
  const std::size_t rows = m.geometry().rows;
  const std::size_t cols = m.geometry().cols;
  switch (rng.uniform_index(6)) {
    case 0:
      m.write_column(rng.uniform_index(cols), random_bits(rows, 0.5, rng));
      break;
    case 1: {
      std::vector<BitVec> matrix;
      for (std::size_t r = 0; r < rows; ++r) {
        matrix.push_back(random_bits(cols, 0.5, rng));
      }
      m.load(matrix);
      break;
    }
    case 2:
      m.poke(rng.uniform_index(rows), rng.uniform_index(cols),
             rng.bernoulli(0.5));
      break;
    case 3:
      m.apply_faults(random_faults(m, rng));
      break;
    case 4:
      m.clear_faults();
      break;
    default:
      m.write_column(rng.uniform_index(cols), BitVec(rows));
      break;
  }
}

/// Runs `input` closed-form on `fast` and stepped on `slow` (a copy of it
/// taken just before), then compares everything observable.
void expect_same_burst(Tile& fast, Tile& slow, const BitVec& input) {
  const std::uint64_t fast_cycles = fast.run_inference(input);
  slow.start_inference(input);
  std::uint64_t slow_cycles = 0;
  while (slow.busy()) {
    slow.step();
    ++slow_cycles;
  }
  ASSERT_EQ(fast_cycles, slow_cycles);
  ASSERT_EQ(fast.stats(), slow.stats());
  ASSERT_EQ(fast.fire_vmem(), slow.fire_vmem());
  ASSERT_EQ(fast.output_vmem(), slow.output_vmem());
  ASSERT_EQ(fast.last_output(), slow.last_output());
  ASSERT_EQ(fast.last_input(), slow.last_input());
  ASSERT_EQ(fast.pending_requests(), 0u);
  if (fast.config().is_output_layer) {
    const std::vector<std::int32_t> vmem = slow.output_vmem();
    std::vector<float> scores(vmem.size());
    for (std::size_t j = 0; j < vmem.size(); ++j) {
      scores[j] = static_cast<float>(vmem[j]) - slow.readout_offset(j);
    }
    const auto first_max = static_cast<std::size_t>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
    ASSERT_EQ(fast.winner(), first_max);
    fast.consume_output();
    slow.consume_output();
  } else {
    BitVec handoff;
    fast.take_output_into(handoff);
    ASSERT_EQ(handoff, slow.take_output());
  }
}

using Shape = std::tuple<std::size_t, std::size_t>;

class TileClosedForm
    : public ::testing::TestWithParam<std::tuple<Shape, sram::CellKind>> {};

TEST_P(TileClosedForm, MatchesSteppedBurstUnderMutations) {
  const auto [shape, cell] = GetParam();
  const auto [inputs, outputs] = shape;
  for (std::size_t dim :
       {std::size_t{64}, std::size_t{128}, std::size_t{100}}) {
    for (bool output_layer : {false, true}) {
      Rng rng(inputs * 7919 + outputs * 104729 + dim * 13 +
              static_cast<std::size_t>(cell) * 2 + (output_layer ? 1 : 0));
      TileConfig cfg;
      cfg.inputs = inputs;
      cfg.outputs = outputs;
      cfg.cell = cell;
      cfg.max_array_dim = dim;
      cfg.is_output_layer = output_layer;
      Tile tile(tech::imec3nm(), cfg);
      ASSERT_TRUE(tile.closed_form());
      tile.load_layer(random_layer(inputs, outputs, rng));
      for (std::size_t rg = 0; rg < tile.row_groups(); ++rg) {
        for (std::size_t cg = 0; cg < tile.col_groups(); ++cg) {
          if (rng.bernoulli(0.5)) {
            tile.macro(rg, cg).apply_faults(
                random_faults(tile.macro(rg, cg), rng));
          }
        }
      }
      for (int round = 0; round < 12; ++round) {
        const std::size_t mutations = rng.uniform_index(4);
        for (std::size_t k = 0; k < mutations; ++k) mutate(tile, rng);
        // Densities from silent (busy = 1, no grants) to saturated arbiters.
        const double density = round == 0 ? 0.0 : (round == 1 ? 1.0 : 0.3);
        const BitVec input = random_bits(inputs, density, rng);
        Tile stepped = tile;
        expect_same_burst(tile, stepped, input);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndCells, TileClosedForm,
    ::testing::Combine(::testing::Values(Shape{100, 37}, Shape{300, 130},
                                         Shape{768, 256}, Shape{65, 129}),
                       ::testing::ValuesIn(sram::kAllCellKinds)));

TEST(TileClosedForm, CloneResyncAndReloadRefreshTheMirror) {
  Rng rng(77);
  TileConfig cfg;
  cfg.inputs = 200;
  cfg.outputs = 150;
  Tile a(tech::imec3nm(), cfg);
  a.load_layer(random_layer(200, 150, rng));
  Tile b = a;
  // b runs once (gathering its columns), then a column of a moves into b and
  // a fresh layer loads into a: both must re-gather.
  (void)b.run_inference(random_bits(200, 0.3, rng));
  (void)b.take_output();
  a.macro(1, 1).write_column(3, random_bits(72, 0.5, rng));
  b.copy_column_from(a, 128 + 3);
  for (Tile* t : {&a, &b}) {
    Tile stepped = *t;
    expect_same_burst(*t, stepped, random_bits(200, 0.3, rng));
  }
  a.load_layer(random_layer(200, 150, rng));
  Tile stepped = a;
  expect_same_burst(a, stepped, random_bits(200, 0.3, rng));
}

TEST(TileClosedForm, CarriedMembraneAndWideFanInStep) {
  Rng rng(78);
  TileConfig carried;
  carried.inputs = 300;
  carried.outputs = 40;
  carried.carry_membrane = true;
  TileConfig narrow;
  narrow.inputs = 300;
  narrow.outputs = 40;
  narrow.neuron.vmem_bits = 8;  // |Vmem| <= 127 < fan-in 300: may saturate
  for (const TileConfig& cfg : {carried, narrow}) {
    Tile tile(tech::imec3nm(), cfg);
    EXPECT_FALSE(tile.closed_form());
    tile.load_layer(random_layer(cfg.inputs, cfg.outputs, rng));
    for (int round = 0; round < 5; ++round) {
      Tile stepped = tile;
      expect_same_burst(tile, stepped, random_bits(cfg.inputs, 0.6, rng));
    }
  }
}

TEST(TileClosedForm, TransposeMatchesPerBit) {
  Rng rng(79);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {64, 64}, {65, 130}, {128, 37}, {200, 3}};
  for (const auto& [rows, cols] : shapes) {
    std::vector<BitVec> m;
    for (std::size_t r = 0; r < rows; ++r) {
      m.push_back(random_bits(cols, 0.5, rng));
    }
    const std::size_t stride = (rows + 63) / 64 + 1;  // padded stride
    std::vector<std::uint64_t> out(cols * stride, ~std::uint64_t{0});
    util::transpose_bits(m, out.data(), stride);
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < (rows + 63) / 64 * 64; ++r) {
        const bool want = r < rows && m[r].test(c);
        ASSERT_EQ((out[c * stride + r / 64] >> (r % 64)) & 1u, want ? 1u : 0u)
            << rows << "x" << cols << " at (" << r << "," << c << ")";
      }
    }
  }
}

}  // namespace
}  // namespace esam::arch
