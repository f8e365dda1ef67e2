// Differential triad for the nn forward: SnnNetwork scores every neuron with
// one popcount over its weight column, and must agree with a per-spike
// row-sum oracle (the sec. 4.4.2 formula read literally), with the packed
// BNN it was converted from, and with the hardware simulator. The shapes are
// ragged and span several 64-bit words per column, so word tails and
// multi-word columns are exercised; densities 0 and 1 pin the edges.
#include <gtest/gtest.h>

#include "esam/arch/system.hpp"
#include "esam/nn/convert.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::nn {
namespace {

/// L_j summed one spiking row at a time: +1 where row i stores a 1 at
/// column j, -1 where it stores a 0.
std::vector<std::int32_t> row_sum(const SnnLayer& layer,
                                  const util::BitVec& spikes) {
  std::vector<std::int32_t> vmem(layer.out_features(), 0);
  spikes.for_each_set([&](std::size_t i) {
    for (std::size_t j = 0; j < vmem.size(); ++j) {
      vmem[j] += layer.weight_rows[i].test(j) ? 1 : -1;
    }
  });
  return vmem;
}

TEST(SnnTriad, ColumnForwardMatchesRowSumBnnAndHardware) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {70, 65, 129, 3}, {200, 130, 10}, {768, 256, 256, 256, 10}};
  std::uint64_t seed = 2200;
  for (const auto& shape : shapes) {
    SCOPED_TRACE(testing::Message() << "input width " << shape.front());
    util::Rng rng(seed++);
    BnnNetwork bnn(shape, rng);
    for (auto& l : bnn.layers()) {
      for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-6.0, 6.0));
    }
    const SnnNetwork snn = SnnNetwork::from_bnn(bnn);
    const std::vector<SnnLayer>& layers = snn.layers();

    std::vector<util::BitVec> inputs;
    std::vector<std::size_t> predictions;
    for (const double density : {0.0, 0.19, 0.5, 1.0}) {
      for (int k = 0; k < 6; ++k) {
        std::vector<float> x(shape.front());
        for (float& v : x) v = rng.bernoulli(density) ? 1.0f : -1.0f;
        const util::BitVec spikes = to_spikes(x);
        const SnnNetwork::Trace t = snn.trace(spikes);
        util::BitVec current = spikes;
        for (std::size_t l = 0; l < layers.size(); ++l) {
          const std::vector<std::int32_t> want = row_sum(layers[l], current);
          if (l + 1 == layers.size()) {
            ASSERT_EQ(t.output_vmem, want) << "density " << density;
            break;
          }
          current = SnnNetwork::fire(layers[l], want);
          ASSERT_EQ(t.spikes[l + 1], current)
              << "density " << density << " layer " << l;
        }
        predictions.push_back(snn.predict(spikes));
        ASSERT_EQ(predictions.back(), bnn.predict(x))
            << "density " << density;
        inputs.push_back(spikes);
      }
    }

    for (const sram::CellKind cell :
         {sram::CellKind::k1RW1R, sram::CellKind::k1RW2R,
          sram::CellKind::k1RW3R, sram::CellKind::k1RW4R}) {
      arch::SystemSimulator sim(tech::imec3nm(), snn, {.cell = cell});
      EXPECT_EQ(sim.run_batched(inputs).predictions, predictions)
          << "read ports " << static_cast<int>(cell);
    }
  }
}

}  // namespace
}  // namespace esam::nn
