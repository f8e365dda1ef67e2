// Tests for the priority encoder and the p-port cascaded arbiter (Fig. 4),
// including the structural tree-vs-flat equivalence and the published
// critical-path / area anchors.
#include <gtest/gtest.h>

#include "esam/arbiter/arbiter.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::arbiter {
namespace {

using util::BitVec;

TEST(PriorityEncoder, GrantsLeftmostRequest) {
  const PriorityEncoder pe(8, EncoderTopology::kFlat);
  const EncodeResult r = pe.encode(BitVec::from_string("00101100"));
  EXPECT_FALSE(r.no_request);
  EXPECT_EQ(r.grant_index, 2u);
  EXPECT_EQ(r.grant.to_string(), "00100000");
  EXPECT_EQ(r.remaining.to_string(), "00001100");
}

TEST(PriorityEncoder, NoRequestRaisesNoR) {
  const PriorityEncoder pe(8);
  const EncodeResult r = pe.encode(BitVec(8));
  EXPECT_TRUE(r.no_request);
  EXPECT_EQ(r.grant_index, 8u);
  EXPECT_TRUE(r.grant.none());
}

TEST(PriorityEncoder, WidthMismatchThrows) {
  const PriorityEncoder pe(8);
  EXPECT_THROW((void)pe.encode(BitVec(9)), std::invalid_argument);
}

TEST(PriorityEncoder, ZeroWidthRejected) {
  EXPECT_THROW(PriorityEncoder(0), std::invalid_argument);
  EXPECT_THROW(PriorityEncoder(8, EncoderTopology::kTree, 0),
               std::invalid_argument);
}

// Property: flat and tree topologies are functionally identical, and the
// grant really is the lowest set index.
TEST(PriorityEncoderProperty, TreeEquivalentToFlat) {
  util::Rng rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t width = 1 + rng.uniform_index(200);
    const std::size_t base = 1 + rng.uniform_index(48);
    PriorityEncoder flat(width, EncoderTopology::kFlat);
    PriorityEncoder tree(width, EncoderTopology::kTree, base);
    BitVec req(width);
    for (std::size_t i = 0; i < width; ++i) {
      if (rng.bernoulli(0.2)) req.set(i);
    }
    const EncodeResult a = flat.encode(req);
    const EncodeResult b = tree.encode(req);
    ASSERT_EQ(a.no_request, b.no_request);
    ASSERT_EQ(a.grant_index, b.grant_index);
    ASSERT_EQ(a.grant, b.grant);
    ASSERT_EQ(a.remaining, b.remaining);
    if (!a.no_request) {
      ASSERT_EQ(a.grant_index, req.find_first());
      ASSERT_EQ(a.remaining.count() + 1, req.count());
    }
  }
}

/// One arbitration cycle.
GrantSet arbitrate(MultiPortArbiter& arb) {
  GrantSet g;
  arb.arbitrate_into(g);
  return g;
}

/// Cycles to drain `spikes` requests (the lowest indices) from a fresh
/// arbiter, granting each exactly once.
std::size_t drain(MultiPortArbiter& arb, std::size_t spikes) {
  BitVec req(arb.width());
  for (std::size_t i = 0; i < spikes; ++i) req.set(i);
  arb.reset();
  arb.request(req);
  std::size_t cycles = 0;
  std::size_t granted = 0;
  GrantSet g;
  while (!arb.r_empty()) {
    arb.arbitrate_into(g);
    granted += g.rows.size();
    ++cycles;
  }
  EXPECT_EQ(granted, spikes);
  return cycles;
}

TEST(MultiPortArbiter, GrantsUpToPPerCycleInPriorityOrder) {
  MultiPortArbiter arb(16, 4);
  arb.request(BitVec::from_string("0110010000000101"));
  const GrantSet g = arbitrate(arb);
  EXPECT_EQ(g.rows, (std::vector<std::size_t>{1, 2, 5, 13}));
  EXPECT_FALSE(g.r_empty_after);
  EXPECT_EQ(arb.pending(), 1u);
  const GrantSet g2 = arbitrate(arb);
  EXPECT_EQ(g2.rows, (std::vector<std::size_t>{15}));
  EXPECT_TRUE(g2.r_empty_after);
}

TEST(MultiPortArbiter, EmptyArbitrationIsNoop) {
  MultiPortArbiter arb(8, 2);
  const GrantSet g = arbitrate(arb);
  EXPECT_TRUE(g.rows.empty());
  EXPECT_TRUE(g.r_empty_after);
  EXPECT_TRUE(arb.r_empty());
}

TEST(MultiPortArbiter, SingleRowRequests) {
  MultiPortArbiter arb(8, 2);
  arb.request(BitVec::from_string("00000010"));
  arb.request(BitVec::from_string("01000000"));
  EXPECT_EQ(arb.pending(), 2u);
  const GrantSet g = arbitrate(arb);
  EXPECT_EQ(g.rows, (std::vector<std::size_t>{1, 6}));
  EXPECT_TRUE(g.r_empty_after);
}

TEST(MultiPortArbiter, RequestsAccumulateAcrossCalls) {
  MultiPortArbiter arb(8, 1);
  arb.request(BitVec::from_string("10000000"));
  arb.request(BitVec::from_string("00000001"));
  EXPECT_EQ(arb.pending(), 2u);
  EXPECT_EQ(arbitrate(arb).rows.front(), 0u);
  EXPECT_EQ(arbitrate(arb).rows.front(), 7u);
}

TEST(MultiPortArbiter, DrainCyclesCeilDivision) {
  MultiPortArbiter arb(128, 4);
  EXPECT_EQ(drain(arb, 0), 0u);
  EXPECT_EQ(drain(arb, 1), 1u);
  EXPECT_EQ(drain(arb, 4), 1u);
  EXPECT_EQ(drain(arb, 5), 2u);
  EXPECT_EQ(drain(arb, 128), 32u);
  MultiPortArbiter one(128, 1);
  EXPECT_EQ(drain(one, 7), 7u);
}

TEST(MultiPortArbiter, ResetClearsPending) {
  MultiPortArbiter arb(8, 2);
  arb.request(BitVec::from_string("00010000"));
  arb.reset();
  EXPECT_TRUE(arb.r_empty());
}

TEST(MultiPortArbiter, ZeroPortsRejected) {
  EXPECT_THROW(MultiPortArbiter(8, 0), std::invalid_argument);
}

// Property: a p-port arbiter drains k requests in exactly ceil(k/p) cycles
// with every request granted exactly once, in index order.
TEST(MultiPortArbiterProperty, DrainsAllRequestsExactlyOnce) {
  util::Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t width = 16 + rng.uniform_index(120);
    const std::size_t ports = 1 + rng.uniform_index(4);
    MultiPortArbiter arb(width, ports);
    BitVec req(width);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < width; ++i) {
      if (rng.bernoulli(0.3)) {
        req.set(i);
        expected.push_back(i);
      }
    }
    arb.request(req);
    std::vector<std::size_t> granted;
    std::size_t cycles = 0;
    GrantSet g;
    while (!arb.r_empty()) {
      arb.arbitrate_into(g);
      ASSERT_LE(g.rows.size(), ports);
      for (std::size_t r : g.rows) granted.push_back(r);
      ++cycles;
      ASSERT_LE(cycles, width + 1);  // progress guard
    }
    ASSERT_EQ(granted, expected);
    ASSERT_EQ(cycles, (expected.size() + ports - 1) / ports);
  }
}

// --- timing/area anchors (sec 3.3) -------------------------------------------

TEST(ArbiterTimingModel, FlatCriticalPathExceeds1100ps) {
  const ArbiterTimingModel flat(tech::imec3nm(), 128, 4,
                                EncoderTopology::kFlat);
  EXPECT_GT(util::in_picoseconds(flat.critical_path()),
            tech::calib::kArbiterFlatCriticalPathPs);
}

TEST(ArbiterTimingModel, TreeCriticalPathBelow800ps) {
  const ArbiterTimingModel tree(tech::imec3nm(), 128, 4,
                                EncoderTopology::kTree);
  EXPECT_LT(util::in_picoseconds(tree.critical_path()),
            tech::calib::kArbiterTreeCriticalPathPs);
  // But the tree is not free: it still dominates a 64-wide flat encoder.
  EXPECT_GT(util::in_picoseconds(tree.critical_path()), 300.0);
}

TEST(ArbiterTimingModel, TreeAreaOverheadIsAbout8Percent) {
  const auto& t = tech::imec3nm();
  const ArbiterTimingModel flat(t, 128, 4, EncoderTopology::kFlat);
  const ArbiterTimingModel tree(t, 128, 4, EncoderTopology::kTree);
  const double overhead = tree.area() / flat.area() - 1.0;
  EXPECT_NEAR(overhead, tech::calib::kArbiterTreeAreaOverhead, 0.01);
}

TEST(ArbiterTimingModel, CriticalPathBarelyScalesWithPorts) {
  // Table 2: "the critical path of the Arbiter does not scale with added
  // ports" -- the cascade only adds a small masking delay per port.
  const auto& t = tech::imec3nm();
  const double p1 = util::in_picoseconds(
      ArbiterTimingModel(t, 128, 1, EncoderTopology::kTree).critical_path());
  const double p4 = util::in_picoseconds(
      ArbiterTimingModel(t, 128, 4, EncoderTopology::kTree).critical_path());
  EXPECT_LT((p4 - p1) / p1, 0.60);
  // While the flat width scaling is brutal: 256 wide doubles the ripple.
  const double w128 = util::in_picoseconds(
      ArbiterTimingModel(t, 128, 4, EncoderTopology::kFlat).critical_path());
  const double w256 = util::in_picoseconds(
      ArbiterTimingModel(t, 256, 4, EncoderTopology::kFlat).critical_path());
  EXPECT_GT(w256 / w128, 1.8);
}

TEST(ArbiterTimingModel, CycleEnergyGrowsWithActivity) {
  const ArbiterTimingModel m(tech::imec3nm(), 128, 4);
  EXPECT_GT(m.cycle_energy(64, 4).base(), m.cycle_energy(4, 1).base());
  EXPECT_GT(m.leakage().base(), 0.0);
}

TEST(ArbiterTimingModel, InvalidConfigRejected) {
  EXPECT_THROW(ArbiterTimingModel(tech::imec3nm(), 0, 4),
               std::invalid_argument);
  EXPECT_THROW(ArbiterTimingModel(tech::imec3nm(), 128, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace esam::arbiter
