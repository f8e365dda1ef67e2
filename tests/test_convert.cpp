// Tests for the BNN -> Binary-SNN conversion: the exactness theorem is the
// key invariant (paper sec. 4.4.2: the converted SNN preserves the BNN's
// 97.6 % accuracy because decisions are preserved sample by sample).
#include <gtest/gtest.h>

#include <cmath>

#include "bnn_oracle.hpp"
#include "esam/nn/convert.hpp"
#include "esam/util/rng.hpp"

namespace esam::nn {
namespace {

BnnNetwork random_bnn(const std::vector<std::size_t>& shape,
                      std::uint64_t seed, bool random_bias = true) {
  util::Rng rng(seed);
  BnnNetwork net(shape, rng);
  if (random_bias) {
    for (auto& l : net.layers()) {
      for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-4.0, 4.0));
    }
  }
  return net;
}

std::vector<float> random_bipolar(std::size_t n, util::Rng& rng,
                                  double p_on = 0.5) {
  std::vector<float> x(n);
  for (auto& v : x) v = rng.bernoulli(p_on) ? 1.0f : -1.0f;
  return x;
}

TEST(Convert, ShapePreserved) {
  const BnnNetwork bnn = random_bnn({20, 12, 5}, 1);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  EXPECT_EQ(snn.shape(), bnn.shape());
  EXPECT_EQ(snn.layers()[0].weight_rows.size(), 20u);
  EXPECT_EQ(snn.layers()[0].weight_rows[0].size(), 12u);
  EXPECT_EQ(snn.layers()[0].thresholds.size(), 12u);
}

TEST(Convert, WeightBitsMatchSigns) {
  const BnnNetwork bnn = random_bnn({9, 6}, 2);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(snn.layers()[0].weight_rows[i].test(j),
                bnn.layers()[0].binary_weight(j, i) > 0.0f);
    }
  }
}

TEST(Convert, ThresholdFormula) {
  // Vth_j = ceil((S_j - b_j)/2) with S_j the signed weight sum.
  const BnnNetwork bnn = random_bnn({15, 4}, 3);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  for (std::size_t j = 0; j < 4; ++j) {
    std::int32_t s = 0;
    for (std::size_t i = 0; i < 15; ++i) {
      s += bnn.layers()[0].binary_weight(j, i) > 0.0f ? 1 : -1;
    }
    const double offset = (s - bnn.layers()[0].bias[j]) / 2.0;
    EXPECT_EQ(snn.layers()[0].thresholds[j],
              static_cast<std::int32_t>(std::ceil(offset)));
    EXPECT_FLOAT_EQ(snn.layers()[0].readout_offsets[j],
                    static_cast<float>(offset));
  }
}

TEST(Convert, ToSpikesMapsPositiveToSpike) {
  const util::BitVec s = to_spikes({1.0f, -1.0f, 1.0f, -1.0f});
  EXPECT_EQ(s.to_string(), "1010");
}

// --- exactness: layer by layer -----------------------------------------------

TEST(ConvertExactness, HiddenSpikesEqualBnnSignsLayerByLayer) {
  util::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const BnnNetwork bnn = random_bnn({40, 24, 16, 6}, 100 + trial);
    const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
    const std::vector<float> x = random_bipolar(40, rng, 0.3);
    const auto bnn_trace = oracle::forward_trace(bnn, x);
    const auto snn_trace = snn.trace(to_spikes(x));
    // Hidden layers: spike <=> BNN activation +1.
    for (std::size_t l = 1; l + 1 < bnn_trace.size(); ++l) {
      ASSERT_EQ(snn_trace.spikes[l].size(), bnn_trace[l].size());
      for (std::size_t j = 0; j < bnn_trace[l].size(); ++j) {
        ASSERT_EQ(snn_trace.spikes[l].test(j), bnn_trace[l][j] > 0.0f)
            << "trial " << trial << " layer " << l << " neuron " << j;
      }
    }
  }
}

TEST(ConvertExactness, OutputScoresAreAffineOfBnnScores) {
  // score_snn = (score_bnn) / 2 exactly: a_j = 2 L_j - S_j + b_j and
  // score_snn_j = L_j - (S_j - b_j)/2 = a_j / 2, so argmax is preserved.
  util::Rng rng(77);
  const BnnNetwork bnn = random_bnn({30, 20, 8}, 500);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<float> x = random_bipolar(30, rng);
    const std::vector<float> bnn_scores = oracle::scores(bnn, x);
    const auto snn_trace = snn.trace(to_spikes(x));
    for (std::size_t j = 0; j < bnn_scores.size(); ++j) {
      ASSERT_NEAR(snn_trace.output_scores[j], bnn_scores[j] / 2.0f, 1e-3f);
    }
  }
}

TEST(ConvertExactness, PredictionsIdenticalToBnn) {
  util::Rng rng(88);
  const BnnNetwork bnn = random_bnn({50, 32, 32, 10}, 600);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<float> x = random_bipolar(50, rng, 0.25);
    ASSERT_EQ(snn.predict(to_spikes(x)), bnn.predict(x)) << "trial " << trial;
  }
}

TEST(ConvertExactness, BiasTieBreaking) {
  // Exactly-at-threshold cases (a_j == 0) must fire, matching sign(0) = +1.
  util::Rng rng(9);
  BnnNetwork bnn(std::vector<std::size_t>{4, 2, 2}, rng);
  // Force weights +1 and zero bias so a = sum(x) exactly.
  for (auto& l : bnn.layers()) {
    for (auto& w : l.latent.flat()) w = 1.0f;
    for (auto& b : l.bias) b = 0.0f;
  }
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  // Two spikes, two silent: layer-1 preact = 0 for every neuron -> fires.
  const std::vector<float> x{1.0f, 1.0f, -1.0f, -1.0f};
  const auto bnn_trace = oracle::forward_trace(bnn, x);
  const auto snn_trace = snn.trace(to_spikes(x));
  EXPECT_FLOAT_EQ(bnn_trace[1][0], 1.0f);
  EXPECT_TRUE(snn_trace.spikes[1].test(0));
}

TEST(Convert, CountsMatchPaperNetwork) {
  // The 768:256:256:256:10 network has 778 neurons and ~330K synapses
  // (Table 3).
  const BnnNetwork bnn = random_bnn({768, 256, 256, 256, 10}, 1234,
                                    /*random_bias=*/false);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  EXPECT_EQ(snn.neuron_count(), 778u);
  EXPECT_EQ(snn.synapse_count(), 330240u);
}

TEST(Convert, AccumulateMatchesManualSum) {
  const BnnNetwork bnn = random_bnn({10, 3}, 55);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  util::BitVec spikes(10);
  spikes.set(2);
  spikes.set(7);
  const auto vmem = snn.accumulate(0, spikes);
  for (std::size_t j = 0; j < 3; ++j) {
    std::int32_t expected = 0;
    expected += snn.layers()[0].weight_rows[2].test(j) ? 1 : -1;
    expected += snn.layers()[0].weight_rows[7].test(j) ? 1 : -1;
    EXPECT_EQ(vmem[j], expected);
  }
  EXPECT_THROW((void)snn.accumulate(0, util::BitVec(9)),
               std::invalid_argument);
}

TEST(Convert, EmptyInputAccumulatesZero) {
  const BnnNetwork bnn = random_bnn({12, 4}, 66);
  const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
  const auto vmem = snn.accumulate(0, util::BitVec(12));
  for (auto v : vmem) EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace esam::nn
