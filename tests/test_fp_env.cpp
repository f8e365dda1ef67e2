// util::FlushDenormals: subnormals flush to zero inside the scope, and the
// caller's float mode comes back at its end, also when guards nest, after
// BnnTrainer, which trains each batch under one, and in its progress sink.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "esam/nn/bnn.hpp"
#include "esam/util/fp_env.hpp"
#include "esam/util/rng.hpp"

namespace esam::util {
namespace {

/// A product with a subnormal operand and result, computed at run time.
float subnormal_product() {
  volatile float tiny = std::numeric_limits<float>::denorm_min() * 8.0f;
  volatile float one = 1.0f;
  return tiny * one;
}

TEST(FpEnv, FlushDenormalsIsScoped) {
  const float outside = subnormal_product();
  ASSERT_GT(outside, 0.0f);
  ASSERT_LT(outside, std::numeric_limits<float>::min());
  {
    const FlushDenormals guard;
    EXPECT_EQ(subnormal_product(), kFlushDenormalsSupported ? 0.0f : outside);
    {
      const FlushDenormals nested;
      EXPECT_EQ(subnormal_product(),
                kFlushDenormalsSupported ? 0.0f : outside);
    }
    // The nested guard restores the outer guard's mode, not the default.
    EXPECT_EQ(subnormal_product(), kFlushDenormalsSupported ? 0.0f : outside);
  }
  EXPECT_EQ(subnormal_product(), outside);
}

TEST(FpEnv, TrainerRestoresCallersMode) {
  Rng rng(5);
  nn::BnnNetwork net({8, 4, 2}, rng);
  const std::vector<std::vector<float>> xs(8, std::vector<float>(8, 1.0f));
  const std::vector<std::uint8_t> ys(8, 1);
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  nn::BnnTrainer trainer(net, cfg);
  const float outside = subnormal_product();
  trainer.fit(xs, ys);
  EXPECT_EQ(subnormal_product(), outside);
  trainer.train_epoch(xs, ys);
  EXPECT_EQ(subnormal_product(), outside);
}

TEST(FpEnv, TrainerLogsInCallersMode) {
  Rng rng(6);
  nn::BnnNetwork net({8, 4, 2}, rng);
  const std::vector<std::vector<float>> xs(8, std::vector<float>(8, 1.0f));
  const std::vector<std::uint8_t> ys(8, 1);
  // The sink records what a subnormal product reads each time it runs.
  std::vector<float> seen;
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 4;
  cfg.log_every = 1;
  cfg.log_ctx = &seen;
  cfg.log_sink = [](const std::string&, void* ctx) {
    static_cast<std::vector<float>*>(ctx)->push_back(subnormal_product());
  };
  nn::BnnTrainer trainer(net, cfg);
  trainer.fit(xs, ys);
  trainer.train_epoch(xs, ys);
  // 2 batch lines and 1 epoch line per fit() epoch, 2 batch lines after.
  ASSERT_EQ(seen.size(), 8u);
  for (const float v : seen) EXPECT_EQ(v, subnormal_product());
}

}  // namespace
}  // namespace esam::util
