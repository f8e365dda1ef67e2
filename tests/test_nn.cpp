// Tests for the matrix library and BNN training substrate, with the packed
// forward pinned bit for bit against the float oracle (bnn_oracle.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "bnn_oracle.hpp"
#include "esam/nn/bnn.hpp"
#include "esam/nn/matrix.hpp"
#include "esam/nn/packed.hpp"

namespace esam::nn {
namespace {

TEST(Matrix, MultiplyVector) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6] * [1 0 -1]^T = [-2, -2]
  float vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.flat().begin());
  const std::vector<float> y = oracle::matvec(m, {1.0f, 0.0f, -1.0f});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], -2.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(Matrix, MultiplyTransposed) {
  Matrix m(2, 3);
  float vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.flat().begin());
  // m^T * [1, -1]^T = [-3, -3, -3]
  const std::vector<float> y = oracle::multiply_transposed(m, {1.0f, -1.0f});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], -3.0f);
  EXPECT_FLOAT_EQ(y[2], -3.0f);
}

TEST(Matrix, DimensionMismatchThrows) {
  Matrix m(2, 3);
  EXPECT_THROW((void)oracle::multiply_transposed(m, {1.0f, 2.0f, 3.0f}),
               std::invalid_argument);
  EXPECT_THROW(oracle::add_outer(m, 1.0f, {1.0f}, {1.0f, 2.0f, 3.0f}),
               std::invalid_argument);
}

TEST(Matrix, AddOuter) {
  Matrix m(2, 2, 1.0f);
  oracle::add_outer(m, 0.5f, {2.0f, 0.0f}, {1.0f, 3.0f});
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);   // 1 + 0.5*2*1
  EXPECT_FLOAT_EQ(m.at(0, 1), 4.0f);   // 1 + 0.5*2*3
  EXPECT_FLOAT_EQ(m.at(1, 0), 1.0f);   // untouched (a[1] == 0)
}

TEST(Bnn, SignActivationConvention) {
  EXPECT_FLOAT_EQ(sign_activation(0.0f), 1.0f);  // sign(0) := +1
  EXPECT_FLOAT_EQ(sign_activation(-0.1f), -1.0f);
  EXPECT_FLOAT_EQ(sign_activation(3.0f), 1.0f);
}

TEST(Bnn, NetworkShape) {
  util::Rng rng(1);
  const BnnNetwork net({768, 256, 256, 256, 10}, rng);
  EXPECT_EQ(net.layers().size(), 4u);
  EXPECT_EQ(net.shape(), (std::vector<std::size_t>{768, 256, 256, 256, 10}));
  EXPECT_THROW(BnnNetwork({5}, rng), std::invalid_argument);
}

TEST(Bnn, BinaryWeightsAreSigns) {
  util::Rng rng(2);
  BnnNetwork net({4, 3}, rng);
  BnnLayer& l = net.layers()[0];
  l.latent.at(0, 0) = 0.7f;
  l.latent.at(0, 1) = -0.7f;
  l.latent.at(0, 2) = 0.0f;
  EXPECT_FLOAT_EQ(l.binary_weight(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(l.binary_weight(0, 1), -1.0f);
  EXPECT_FLOAT_EQ(l.binary_weight(0, 2), 1.0f);  // sign(0) := +1
}

TEST(Bnn, ScoresUseBinarizedWeightsAndBias) {
  util::Rng rng(3);
  BnnNetwork net({2, 1}, rng);
  BnnLayer& l = net.layers()[0];
  l.latent.at(0, 0) = 0.9f;   // -> +1
  l.latent.at(0, 1) = -0.2f;  // -> -1
  l.bias[0] = 0.25f;
  const std::vector<float> s = oracle::scores(net, {1.0f, 1.0f});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_FLOAT_EQ(s[0], 1.0f - 1.0f + 0.25f);
  const std::uint64_t x = 0b11;  // both inputs +1
  std::vector<float> packed;
  PackedBnn(net).class_scores(&x, packed);
  EXPECT_EQ(packed, s);
}

TEST(Bnn, ForwardTraceShapes) {
  util::Rng rng(4);
  const BnnNetwork net({6, 5, 3}, rng);
  const auto trace = oracle::forward_trace(net, std::vector<float>(6, 1.0f));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].size(), 6u);
  EXPECT_EQ(trace[1].size(), 5u);
  EXPECT_EQ(trace[2].size(), 3u);
  // Hidden activations are bipolar.
  for (float v : trace[1]) EXPECT_TRUE(v == 1.0f || v == -1.0f);
}

TEST(Bnn, TrainerLearnsLinearlySeparableToy) {
  // Two classes keyed by the sign of the first two inputs; a BNN should nail
  // this quickly.
  util::Rng rng(5);
  BnnNetwork net({16, 32, 2}, rng);
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  util::Rng data_rng(6);
  for (int i = 0; i < 600; ++i) {
    std::vector<float> x(16);
    for (auto& v : x) v = data_rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const std::uint8_t label = (x[0] + x[1] > 0.0f) ? 1 : 0;
    xs.push_back(std::move(x));
    ys.push_back(label);
  }
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 32;
  cfg.seed = 7;
  BnnTrainer trainer(net, cfg);
  const double final_loss = trainer.fit(xs, ys);
  EXPECT_LT(final_loss, 0.45);
  EXPECT_GT(net.accuracy(xs, ys), 0.90);
}

TEST(Bnn, TrainEpochLowersLossOnAverage) {
  util::Rng rng(8);
  BnnNetwork net({12, 24, 3}, rng);
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  util::Rng data_rng(9);
  for (int i = 0; i < 300; ++i) {
    std::vector<float> x(12);
    for (auto& v : x) v = data_rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const auto label = static_cast<std::uint8_t>((x[0] > 0) + (x[1] > 0));
    xs.push_back(std::move(x));
    ys.push_back(label);
  }
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.seed = 10;
  BnnTrainer trainer(net, cfg);
  const double first = trainer.train_epoch(xs, ys);
  double last = first;
  for (int e = 0; e < 14; ++e) last = trainer.train_epoch(xs, ys);
  EXPECT_LT(last, first);
}

TEST(Bnn, LatentWeightsStayClipped) {
  util::Rng rng(11);
  BnnNetwork net({8, 4}, rng);
  std::vector<std::vector<float>> xs(64, std::vector<float>(8, 1.0f));
  std::vector<std::uint8_t> ys(64, 1);
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.learning_rate = 0.5f;  // aggressive on purpose
  BnnTrainer trainer(net, cfg);
  trainer.fit(xs, ys);
  for (const auto& l : net.layers()) {
    for (float w : l.latent.flat()) {
      EXPECT_LE(std::fabs(w), 1.0f);
    }
  }
}

TEST(Bnn, SaveLoadRoundTrip) {
  util::Rng rng(12);
  BnnNetwork net({10, 7, 4}, rng);
  net.layers()[0].bias[3] = 0.625f;
  const std::string path = ::testing::TempDir() + "/bnn_roundtrip.bin";
  ASSERT_TRUE(net.save(path));
  BnnNetwork loaded;
  ASSERT_TRUE(BnnNetwork::load(path, loaded));
  ASSERT_EQ(loaded.shape(), net.shape());
  EXPECT_FLOAT_EQ(loaded.layers()[0].bias[3], 0.625f);
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    EXPECT_EQ(loaded.layers()[l].latent.flat(), net.layers()[l].latent.flat());
  }
  // Same predictions after reload.
  std::vector<float> x(10);
  for (std::size_t i = 0; i < 10; ++i) x[i] = (i % 2 != 0) ? 1.0f : -1.0f;
  EXPECT_EQ(loaded.predict(x), net.predict(x));
}

TEST(Bnn, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/bnn_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a model", f);
    std::fclose(f);
  }
  BnnNetwork out;
  EXPECT_FALSE(BnnNetwork::load(path, out));
  EXPECT_FALSE(BnnNetwork::load("/nonexistent/path.bin", out));
}

TEST(Bnn, AccuracyValidatesInput) {
  util::Rng rng(13);
  const BnnNetwork net({4, 2}, rng);
  EXPECT_THROW((void)net.accuracy({}, {}), std::invalid_argument);
  EXPECT_THROW((void)net.accuracy({{1, 1, 1, 1}}, {0, 1}),
               std::invalid_argument);
}

// --- packed forward vs the float oracle --------------------------------------

std::vector<float> random_bipolar(std::size_t n, util::Rng& rng) {
  std::vector<float> x(n);
  for (auto& v : x) v = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return x;
}

/// Float bit patterns, so -0.0f != +0.0f and a NaN equals itself.
std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out;
  for (float f : v) out.push_back(std::bit_cast<std::uint32_t>(f));
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(Bnn, PackedForwardMatchesFloatOracleBitForBit) {
  // Widths that are not multiples of 64 exercise the packed tail words;
  // latents of exactly +0.0f, -0.0f and +-NaN pin the >= 0.0f packing rule
  // (a sign-bit extraction gets -0.0f and +NaN wrong).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, nan, -nan};
  util::Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    BnnNetwork net({70, 65, 129, 3}, rng);
    for (auto& l : net.layers()) {
      for (auto& w : l.latent.flat()) {
        if (rng.bernoulli(0.2)) w = specials[rng.uniform_index(4)];
      }
      for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-4.0, 4.0));
    }
    const PackedBnn packed(net);
    for (int s = 0; s < 16; ++s) {
      const std::vector<float> x = random_bipolar(70, rng);
      const auto trace = oracle::forward_trace(net, x);
      // Layer by layer, from the oracle's own activations.
      for (std::size_t l = 0; l < packed.layers().size(); ++l) {
        const PackedLayer& layer = packed.layers()[l];
        std::vector<std::uint64_t> bits(layer.words);
        pack_signs(trace[l].data(), layer.in, bits.data());
        std::vector<float> z(layer.out);
        layer.forward(bits.data(), z.data());
        ASSERT_EQ(float_bits(z),
                  float_bits(oracle::preactivate(net.layers()[l], trace[l])))
            << "trial " << trial << " sample " << s << " layer " << l;
      }
      // End to end through the packed sign activations.
      std::vector<std::uint64_t> xb(packed_words(x.size()));
      pack_signs(x.data(), x.size(), xb.data());
      std::vector<float> got;
      packed.class_scores(xb.data(), got);
      ASSERT_EQ(float_bits(got), float_bits(trace.back()));
      const auto& s_ref = trace.back();
      EXPECT_EQ(net.predict(x),
                static_cast<std::size_t>(
                    std::max_element(s_ref.begin(), s_ref.end()) -
                    s_ref.begin()));
    }
  }
}

TEST(Bnn, PackedTrainingMatchesFloatOracleBytes) {
  // 50 samples in batches of 16 leave a partial tail batch of 2.
  const std::vector<std::size_t> shape{70, 65, 129, 3};
  util::Rng data_rng(31);
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(random_bipolar(70, data_rng));
    ys.push_back(static_cast<std::uint8_t>((xs.back()[0] > 0.0f) +
                                           (xs.back()[69] > 0.0f)));
  }
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.seed = 32;
  util::Rng init_a(33), init_b(33);
  BnnNetwork packed_net(shape, init_a);
  BnnNetwork float_net(shape, init_b);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(packed_net.save(dir + "/bnn_train_init.bin"));

  BnnTrainer trainer(packed_net, cfg);
  const double packed_loss = trainer.fit(xs, ys);
  oracle::FloatTrainer reference(float_net, cfg);
  const double float_loss = reference.fit(xs, ys);
  EXPECT_EQ(packed_loss, float_loss);

  ASSERT_TRUE(packed_net.save(dir + "/bnn_train_packed.bin"));
  ASSERT_TRUE(float_net.save(dir + "/bnn_train_float.bin"));
  const std::string packed_bytes = file_bytes(dir + "/bnn_train_packed.bin");
  ASSERT_FALSE(packed_bytes.empty());
  EXPECT_NE(packed_bytes, file_bytes(dir + "/bnn_train_init.bin"));
  EXPECT_EQ(packed_bytes, file_bytes(dir + "/bnn_train_float.bin"));
}

/// Trains two copies of a network on (xs, ys), one with BnnTrainer and one
/// with the float oracle, and returns their saved bytes (trainer first);
/// the losses must match exactly.
std::pair<std::string, std::string> train_both(
    const std::vector<std::size_t>& shape, const TrainConfig& cfg,
    const std::vector<std::vector<float>>& xs,
    const std::vector<std::uint8_t>& ys, std::size_t* subnormal_moments,
    const std::string& tag) {
  util::Rng init_a(71), init_b(71);
  BnnNetwork trained(shape, init_a);
  BnnNetwork reference_net(shape, init_b);
  BnnTrainer trainer(trained, cfg);
  oracle::FloatTrainer reference(reference_net, cfg);
  EXPECT_EQ(trainer.fit(xs, ys), reference.fit(xs, ys)) << tag;
  if (subnormal_moments != nullptr) {
    *subnormal_moments = reference.subnormal_moments();
  }
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(trained.save(dir + "/bnn_" + tag + "_trainer.bin"));
  EXPECT_TRUE(reference_net.save(dir + "/bnn_" + tag + "_oracle.bin"));
  return {file_bytes(dir + "/bnn_" + tag + "_trainer.bin"),
          file_bytes(dir + "/bnn_" + tag + "_oracle.bin")};
}

TEST(Bnn, BlockedTrainingMatchesFloatOracleOnRaggedShapes) {
  // Widths that are not multiples of the 32-column register block (nor of
  // 64), batch sizes that leave tail batches (70 samples: 70 % 3 == 1,
  // 70 % 16 == 6, 70 % 64 == 6), and one sample per batch. The last shape
  // has layers narrower than a core count, and batches of 2 and 5 samples,
  // so the trainer's parallel phases have fewer rows and samples than
  // cores.
  struct Case {
    std::vector<std::size_t> shape;
    std::vector<std::size_t> batches;
  };
  const std::vector<Case> cases{{{70, 65, 129, 3}, {1, 3, 16, 64}},
                                {{33, 17, 5}, {1, 3, 16, 64}},
                                {{9, 3, 2}, {2, 5}}};
  for (const auto& [shape, batches] : cases) {
    util::Rng data_rng(72);
    std::vector<std::vector<float>> xs;
    std::vector<std::uint8_t> ys;
    for (int i = 0; i < 70; ++i) {
      xs.push_back(random_bipolar(shape.front(), data_rng));
      ys.push_back(static_cast<std::uint8_t>(
          ((xs.back()[0] > 0.0f) + 2 * (xs.back()[1] > 0.0f)) %
          shape.back()));
    }
    for (std::size_t batch : batches) {
      TrainConfig cfg;
      cfg.epochs = 3;
      cfg.batch_size = batch;
      cfg.seed = 73;
      const std::string tag = std::to_string(shape.front()) + "_" +
                              std::to_string(batch);
      const auto [got, want] = train_both(shape, cfg, xs, ys, nullptr, tag);
      ASSERT_FALSE(got.empty()) << tag;
      EXPECT_EQ(got, want) << tag;
    }
  }
}

TEST(Bnn, FlushedTrainingMatchesUnflushedOracleBytes) {
  // BnnTrainer flushes subnormals to zero while it trains; the oracle does
  // not. Inputs 6..32 are a constant -1 background, as in the digits, so
  // hidden neurons that saturate on it stop receiving gradient and their
  // Adam moments decay into the subnormal range within the 1 120 steps.
  const std::vector<std::size_t> shape{33, 17, 5};
  util::Rng data_rng(74);
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  for (int i = 0; i < 64; ++i) {
    std::vector<float> x(33, -1.0f);
    for (std::size_t c = 0; c < 6; ++c) {
      x[c] = data_rng.bernoulli(0.5) ? 1.0f : -1.0f;
    }
    ys.push_back(static_cast<std::uint8_t>((x[0] > 0.0f) + (x[1] > 0.0f)));
    xs.push_back(std::move(x));
  }
  TrainConfig cfg;
  cfg.epochs = 70;
  cfg.batch_size = 4;
  cfg.seed = 75;
  std::size_t subnormal_moments = 0;
  const auto [got, want] =
      train_both(shape, cfg, xs, ys, &subnormal_moments, "flush");
  ASSERT_GT(subnormal_moments, 0u) << "the run never reaches subnormals";
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, want);
}

TEST(Bnn, TrainerRejectsZeroBatchSize) {
  util::Rng rng(41);
  BnnNetwork net({4, 2}, rng);
  TrainConfig cfg;
  cfg.batch_size = 0;  // would never advance through the epoch
  EXPECT_THROW((void)BnnTrainer(net, cfg), std::invalid_argument);
}

TEST(Bnn, TrainerValidatesWholeDatasetBeforeAnyUpdate) {
  util::Rng rng(42);
  BnnNetwork net({8, 6, 2}, rng);
  const BnnNetwork before = net;
  util::Rng data_rng(43);
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  for (int i = 0; i < 48; ++i) {
    xs.push_back(random_bipolar(8, data_rng));
    ys.push_back(static_cast<std::uint8_t>(i % 2));
  }
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  BnnTrainer trainer(net, cfg);

  // Each defect sits in the last batch, after five clean ones.
  auto non_bipolar = xs;
  non_bipolar[40][3] = 0.5f;
  try {
    trainer.fit(non_bipolar, ys);
    FAIL() << "non-+-1 input accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sample 40"), std::string::npos)
        << e.what();
  }
  auto zero = xs;
  zero[41][0] = 0.0f;
  EXPECT_THROW(trainer.train_epoch(zero, ys), std::invalid_argument);
  auto nan = xs;
  nan[42][7] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(trainer.fit(nan, ys), std::invalid_argument);
  auto narrow = xs;
  narrow[47].pop_back();
  EXPECT_THROW(trainer.train_epoch(narrow, ys), std::invalid_argument);
  auto bad_label = ys;
  bad_label[46] = 2;
  EXPECT_THROW(trainer.fit(xs, bad_label), std::invalid_argument);

  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    EXPECT_EQ(net.layers()[l].latent.flat(), before.layers()[l].latent.flat());
    EXPECT_EQ(net.layers()[l].bias, before.layers()[l].bias);
  }
  // Nothing moved, not even the shuffle stream: the trainer now behaves
  // exactly like a fresh one.
  BnnNetwork fresh = before;
  BnnTrainer fresh_trainer(fresh, cfg);
  EXPECT_EQ(trainer.fit(xs, ys), fresh_trainer.fit(xs, ys));
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    EXPECT_EQ(net.layers()[l].latent.flat(), fresh.layers()[l].latent.flat());
  }
}

TEST(Bnn, PredictAndAccuracyRejectNonBipolarInputs) {
  util::Rng rng(44);
  const BnnNetwork net({4, 2}, rng);
  EXPECT_NO_THROW((void)net.predict({1.0f, -1.0f, 1.0f, -1.0f}));
  EXPECT_THROW((void)net.predict({1.0f, 1.0f, 1.0f}), std::invalid_argument);
  EXPECT_THROW((void)net.predict({1.0f, 1.0f, 0.0f, 1.0f}),
               std::invalid_argument);
  EXPECT_THROW((void)net.predict({1.0f, -0.0f, 1.0f, 1.0f}),
               std::invalid_argument);
  try {
    (void)net.accuracy({{1, 1, 1, 1}, {1, -1, 2, 1}}, {0, 1});
    FAIL() << "non-+-1 input accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sample 1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace esam::nn
