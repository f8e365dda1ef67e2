// Functional tests for the SRAM macro: storage correctness, transposed
// access equivalence, read pricing, the yield guard, and a differential
// test of the column-major cell array against a dense per-cell model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "esam/sram/macro.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::sram {
namespace {

SramMacro make_macro(CellKind kind, ArrayGeometry geom = {}) {
  return SramMacro(tech::imec3nm(), BitcellSpec::of(kind), geom,
                   util::millivolts(500.0));
}

TEST(SramMacro, StartsZeroed) {
  SramMacro m = make_macro(CellKind::k1RW4R);
  for (std::size_t r = 0; r < 128; r += 17) {
    for (std::size_t c = 0; c < 128; c += 13) {
      EXPECT_FALSE(m.peek(r, c));
    }
  }
}

TEST(SramMacro, PokePeekRoundTrip) {
  SramMacro m = make_macro(CellKind::k1RW4R);
  m.poke(3, 5, true);
  m.poke(127, 127, true);
  EXPECT_TRUE(m.peek(3, 5));
  EXPECT_TRUE(m.peek(127, 127));
  m.poke(3, 5, false);
  EXPECT_FALSE(m.peek(3, 5));
}

TEST(SramMacro, BoundsChecked) {
  SramMacro m = make_macro(CellKind::k1RW4R);
  EXPECT_THROW((void)m.peek(128, 0), std::out_of_range);
  EXPECT_THROW(m.poke(0, 128, true), std::out_of_range);
  EXPECT_THROW((void)m.read_column(128), std::out_of_range);
}

TEST(SramMacro, YieldGuardRejectsOversizedArrays) {
  const auto& t = tech::imec3nm();
  EXPECT_THROW(SramMacro(t, BitcellSpec::of(CellKind::k1RW4R),
                         ArrayGeometry{256, 128, 4}, util::millivolts(500.0)),
               std::invalid_argument);
  // The ablation escape hatch still works.
  EXPECT_NO_THROW(SramMacro(t, BitcellSpec::of(CellKind::k1RW4R),
                            ArrayGeometry{256, 128, 4}, util::millivolts(500.0),
                            /*allow_non_yielding=*/true));
}

TEST(SramMacro, LoadValidatesShape) {
  SramMacro m = make_macro(CellKind::k1RW4R, ArrayGeometry{16, 8, 4});
  std::vector<util::BitVec> bad_rows(15, util::BitVec(8));
  EXPECT_THROW(m.load(bad_rows), std::invalid_argument);
  std::vector<util::BitVec> bad_cols(16, util::BitVec(9));
  EXPECT_THROW(m.load(bad_cols), std::invalid_argument);
}

TEST(SramMacro, LoadedRowReadsBackFromCellsAndColumns) {
  SramMacro m = make_macro(CellKind::k1RW4R, ArrayGeometry{8, 8, 4});
  std::vector<util::BitVec> rows(8, util::BitVec(8));
  rows[3] = util::BitVec::from_string("10110010");
  m.load(rows);
  std::string row;
  for (std::size_t c = 0; c < 8; ++c) {
    row += m.peek(3, c) ? '1' : '0';
    // Row 3 is bit 3 of every column; no other row holds a 1.
    EXPECT_EQ(m.read_column(c).count(), rows[3].test(c) ? 1u : 0u);
    EXPECT_EQ(m.read_column(c).test(3), rows[3].test(c));
  }
  EXPECT_EQ(row, "10110010");
}

TEST(SramMacro, TransposedColumnReadMatchesRowContent) {
  util::Rng rng(31);
  SramMacro m = make_macro(CellKind::k1RW4R);
  std::vector<util::BitVec> rows(128, util::BitVec(128));
  for (auto& r : rows) {
    for (std::size_t c = 0; c < 128; ++c) {
      if (rng.bernoulli(0.5)) r.set(c);
    }
  }
  m.load(rows);
  for (std::size_t c = 0; c < 128; c += 11) {
    const util::BitVec col = m.read_column(c);
    for (std::size_t r = 0; r < 128; ++r) {
      ASSERT_EQ(col.test(r), rows[r].test(c)) << "r=" << r << " c=" << c;
    }
  }
}

TEST(SramMacro, WriteColumnThenReadBack) {
  util::Rng rng(77);
  SramMacro m = make_macro(CellKind::k1RW4R);
  util::BitVec col(128);
  for (std::size_t r = 0; r < 128; ++r) {
    if (rng.bernoulli(0.4)) col.set(r);
  }
  m.write_column(17, col);
  EXPECT_EQ(m.read_column(17), col);
  // Neighbouring columns untouched.
  EXPECT_TRUE(m.read_column(16).none());
  EXPECT_TRUE(m.read_column(18).none());
}

TEST(SramMacro, WriteColumnSizeChecked) {
  SramMacro m = make_macro(CellKind::k1RW4R);
  EXPECT_THROW(m.write_column(0, util::BitVec(127)), std::invalid_argument);
}

TEST(SramMacro, ReadEnergyCachedForPricing) {
  // The macro counts nothing and posts no energy: the tile counts its
  // inference reads and prices each at inference_read_energy().
  const SramMacro m = make_macro(CellKind::k1RW4R);
  EXPECT_GT(m.inference_read_energy().base(), 0.0);
  EXPECT_EQ(m.inference_read_energy().base(),
            m.timing().inference_row_read_energy().base());
}

TEST(SramMacro, ColumnUpdateCostMatchesPaperStructure) {
  // 1RW+4R: 2 x 4 accesses; 6T: 2 x 128 cycles (sec. 4.4.1).
  const SramMacro m4 = make_macro(CellKind::k1RW4R);
  const auto cost4 = m4.column_update_cost();
  EXPECT_NEAR(util::in_nanoseconds(cost4.time), 9.9 + 8.04, 0.02);

  const SramMacro m0 = make_macro(CellKind::k1RW);
  const auto cost0 = m0.column_update_cost();
  EXPECT_NEAR(util::in_nanoseconds(cost0.time), 257.8, 1.0);
  EXPECT_NEAR(util::in_picojoules(cost0.energy), 157.0, 0.5);
}

TEST(SramMacro, NonSquareGeometry) {
  SramMacro m = make_macro(CellKind::k1RW4R, ArrayGeometry{128, 10, 4});
  m.poke(100, 9, true);
  EXPECT_TRUE(m.peek(100, 9));
  const util::BitVec col = m.read_column(9);
  EXPECT_TRUE(col.test(100));
  EXPECT_EQ(col.count(), 1u);
}

// --- differential test against a dense per-cell model -----------------------

/// What the macro must hold: the written bits and both stuck-at masks, one
/// bool per cell (index r * cols + c), and the documented read rule.
struct DenseMacro {
  std::size_t rows;
  std::size_t cols;
  std::vector<bool> written;
  std::vector<bool> stuck0;  // empty when no fault map is installed
  std::vector<bool> stuck1;

  DenseMacro(std::size_t r, std::size_t c)
      : rows(r), cols(c), written(r * c, false) {}

  [[nodiscard]] bool observed(std::size_t r, std::size_t c) const {
    const std::size_t i = r * cols + c;
    if (stuck0.empty()) return written[i];
    return (written[i] && !stuck0[i]) || stuck1[i];
  }
  [[nodiscard]] std::size_t fault_count() const {
    return static_cast<std::size_t>(
        std::count(stuck0.begin(), stuck0.end(), true) +
        std::count(stuck1.begin(), stuck1.end(), true));
  }
};

util::BitVec random_bits(std::size_t n, double density, util::Rng& rng) {
  util::BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(density)) v.set(i);
  }
  return v;
}

std::vector<bool> to_bools(const util::BitVec& v) {
  std::vector<bool> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v.test(i);
  return out;
}

/// Everything a port or a reader can see, against the model.
void expect_matches(const SramMacro& m, const DenseMacro& d) {
  ASSERT_EQ(m.has_faults(), !d.stuck0.empty());
  ASSERT_EQ(m.fault_count(), d.fault_count());
  for (std::size_t r = 0; r < d.rows; ++r) {
    for (std::size_t c = 0; c < d.cols; ++c) {
      ASSERT_EQ(m.peek(r, c), d.observed(r, c)) << "(" << r << "," << c << ")";
    }
  }
  const std::size_t words = m.column_word_count();
  ASSERT_EQ(words, (d.rows + 63) / 64);
  for (std::size_t c = 0; c < d.cols; ++c) {
    const util::BitVec col = m.read_column(c);
    ASSERT_EQ(col.size(), d.rows);
    for (std::size_t r = 0; r < d.rows; ++r) {
      ASSERT_EQ(col.test(r), d.observed(r, c)) << "(" << r << "," << c << ")";
    }
    // The words the tile reads rows from; bits past the last row stay
    // zero, because the tile popcounts whole words.
    const std::uint64_t* w = m.column_words(c);
    for (std::size_t r = 0; r < words * 64; ++r) {
      const bool want = r < d.rows && d.observed(r, c);
      ASSERT_EQ((w[r / 64] >> (r % 64)) & 1u, want ? 1u : 0u)
          << "(" << r << "," << c << ")";
    }
  }
}

using Geometry = std::pair<std::size_t, std::size_t>;

class SramMacroOracle
    : public ::testing::TestWithParam<std::tuple<Geometry, CellKind>> {};

TEST_P(SramMacroOracle, MatchesDenseModelUnderRandomOps) {
  const auto [geometry, cell] = GetParam();
  const auto [rows, cols] = geometry;
  util::Rng rng(rows * 131 + cols * 7 + static_cast<std::size_t>(cell));
  SramMacro m = make_macro(cell, ArrayGeometry{rows, cols, 4});
  DenseMacro d(rows, cols);
  expect_matches(m, d);
  for (int step = 0; step < 60; ++step) {
    const std::uint64_t stamp = m.stamp();
    bool mutated = true;
    switch (rng.uniform_index(7)) {
      case 0: {
        const std::size_t r = rng.uniform_index(rows);
        const std::size_t c = rng.uniform_index(cols);
        const bool v = rng.bernoulli(0.5);
        m.poke(r, c, v);
        d.written[r * cols + c] = v;
        break;
      }
      case 1:
      case 2: {
        const std::size_t c = rng.uniform_index(cols);
        const util::BitVec bits = random_bits(rows, 0.5, rng);
        m.write_column(c, bits);
        for (std::size_t r = 0; r < rows; ++r) {
          d.written[r * cols + c] = bits.test(r);
        }
        break;
      }
      case 3: {
        std::vector<util::BitVec> matrix;
        for (std::size_t r = 0; r < rows; ++r) {
          matrix.push_back(random_bits(cols, 0.5, rng));
          for (std::size_t c = 0; c < cols; ++c) {
            d.written[r * cols + c] = matrix.back().test(c);
          }
        }
        m.load(matrix);
        break;
      }
      case 4:
      case 5: {
        // Independent masks, so some cells are stuck both ways (stuck-at-1
        // wins); installing a map over another replaces it.
        FaultMap map;
        map.stuck_at_zero = random_bits(rows * cols, 0.1, rng);
        map.stuck_at_one = random_bits(rows * cols, 0.1, rng);
        m.apply_faults(map);
        d.stuck0 = to_bools(map.stuck_at_zero);
        d.stuck1 = to_bools(map.stuck_at_one);
        break;
      }
      default:
        mutated = m.has_faults();
        m.clear_faults();
        d.stuck0.clear();
        d.stuck1.clear();
        break;
    }
    // A stale stamp would let the tile keep a stale column copy.
    if (mutated) {
      ASSERT_NE(m.stamp(), stamp) << "step " << step;
    }
    expect_matches(m, d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndCells, SramMacroOracle,
    ::testing::Combine(::testing::Values(Geometry{64, 64}, Geometry{100, 100},
                                         Geometry{128, 128},
                                         Geometry{128, 10}),
                       ::testing::Values(CellKind::k1RW, CellKind::k1RW4R)));

}  // namespace
}  // namespace esam::sram
