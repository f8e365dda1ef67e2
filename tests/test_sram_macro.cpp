// Functional tests for the SRAM macro: storage correctness, transposed
// access equivalence, energy posting, and the yield guard.
#include <gtest/gtest.h>

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
  EXPECT_THROW((void)m.read_row(0, 128), std::out_of_range);
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

TEST(SramMacro, ReadRowReturnsLoadedBits) {
  SramMacro m = make_macro(CellKind::k1RW4R, ArrayGeometry{8, 8, 4});
  std::vector<util::BitVec> rows(8, util::BitVec(8));
  rows[3] = util::BitVec::from_string("10110010");
  m.load(rows);
  EXPECT_EQ(m.read_row(0, 3).to_string(), "10110010");
  EXPECT_EQ(m.read_row(3, 3).to_string(), "10110010");  // any port, same data
}

TEST(SramMacro, PortRangeEnforced) {
  SramMacro m4 = make_macro(CellKind::k1RW4R);
  EXPECT_NO_THROW((void)m4.read_row(3, 0));
  EXPECT_THROW((void)m4.read_row(4, 0), std::out_of_range);
  SramMacro m0 = make_macro(CellKind::k1RW);
  EXPECT_NO_THROW((void)m0.read_row(0, 0));  // 6T serves port 0 via RW port
  EXPECT_THROW((void)m0.read_row(1, 0), std::out_of_range);
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

TEST(SramMacro, RowRwOpsOnlyForBaselineCell) {
  SramMacro m4 = make_macro(CellKind::k1RW4R);
  EXPECT_THROW((void)m4.read_row_rw(0), std::logic_error);
  EXPECT_THROW(m4.write_row_rw(0, util::BitVec(128)), std::logic_error);

  SramMacro m0 = make_macro(CellKind::k1RW);
  util::BitVec row(128);
  row.set(5);
  row.set(99);
  m0.write_row_rw(7, row);
  EXPECT_EQ(m0.read_row_rw(7), row);
}

TEST(SramMacro, StatsCountAccesses) {
  SramMacro m = make_macro(CellKind::k1RW4R);
  (void)m.read_row(0, 0);
  (void)m.read_row(1, 5);
  (void)m.read_column(3);                   // 4 muxed accesses
  m.write_column(3, util::BitVec(128));     // 4 muxed accesses
  EXPECT_EQ(m.stats().inference_row_reads, 2u);
  EXPECT_EQ(m.stats().rw_read_accesses, 4u);
  EXPECT_EQ(m.stats().rw_write_accesses, 4u);

  SramMacro m0 = make_macro(CellKind::k1RW);
  (void)m0.read_column(0);  // 6T: one row access per row
  EXPECT_EQ(m0.stats().rw_read_accesses, 128u);
}

TEST(SramMacro, AccessesCountedForPricing) {
  // The macro posts no energy: it counts its accesses, and the callers price
  // them (the tile its inference reads, at inference_read_energy() each).
  SramMacro m = make_macro(CellKind::k1RW4R);
  (void)m.read_row(0, 0);
  util::BitVec row(128);
  m.read_row_into(3, 1, row);
  EXPECT_EQ(m.stats().inference_row_reads, 2u);
  EXPECT_GT(m.inference_read_energy().base(), 0.0);
  EXPECT_EQ(m.inference_read_energy().base(),
            m.timing().inference_row_read_energy().base());
  (void)m.read_column(0);
  EXPECT_EQ(m.stats().rw_read_accesses, 4u);  // col_mux accesses
  m.write_column(0, util::BitVec(128));
  EXPECT_EQ(m.stats().rw_write_accesses, 4u);
  EXPECT_EQ(m.stats().inference_row_reads, 2u);
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
  EXPECT_TRUE(m.read_row(2, 100).test(9));
  const util::BitVec col = m.read_column(9);
  EXPECT_TRUE(col.test(100));
  EXPECT_EQ(col.count(), 1u);
}

}  // namespace
}  // namespace esam::sram
