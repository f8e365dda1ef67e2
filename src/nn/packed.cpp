#include "esam/nn/packed.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "esam/util/simd.hpp"

namespace esam::nn {

void pack_signs(const float* v, std::size_t n, std::uint64_t* dst) {
  static_assert(std::endian::native == std::endian::little,
                "byte b of a loaded word must be sign 8*g + b");
  for (std::size_t w = 0; w < packed_words(n); ++w) {
    const std::size_t base = 64 * w;
    const std::size_t len = std::min<std::size_t>(64, n - base);
    // One 0/1 byte per sign first (this loop vectorizes), then each group
    // of eight bytes folds into eight bits: multiplying by
    // 0x0102040810204080 moves byte b's low bit to bit 56 + b without
    // carries, and the shift brings them down in order.
    std::uint8_t on[64] = {};
    for (std::size_t b = 0; b < len; ++b) on[b] = v[base + b] >= 0.0f;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 8; ++g) {
      std::uint64_t bytes = 0;
      std::memcpy(&bytes, on + 8 * g, sizeof bytes);
      word |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * g);
    }
    dst[w] = word;
  }
}

PackedLayer::PackedLayer(const BnnLayer& layer)
    : in(layer.in_features()),
      out(layer.out_features()),
      words(packed_words(in)),
      rows(out * words),
      bias(layer.bias) {
  for (std::size_t j = 0; j < out; ++j) {
    pack_signs(layer.latent.row_data(j), in, rows.data() + j * words);
  }
}

void PackedLayer::forward(const std::uint64_t* x, float* z) const {
  const auto xor_count = util::simd::active().xor_count;
  const auto n = static_cast<std::int64_t>(in);
  for (std::size_t j = 0; j < out; ++j) {
    const auto flips =
        static_cast<std::int64_t>(xor_count(x, rows.data() + j * words, words));
    z[j] = static_cast<float>(n - 2 * flips) + bias[j];
  }
}

PackedBnn::PackedBnn(const BnnNetwork& net) {
  layers_.reserve(net.layers().size());
  for (const BnnLayer& l : net.layers()) layers_.emplace_back(l);
}

void PackedBnn::class_scores(const std::uint64_t* x,
                             std::vector<float>& out) const {
  std::vector<std::uint64_t> act;
  const std::uint64_t* cur = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    out.resize(layers_[l].out);
    layers_[l].forward(cur, out.data());
    if (l + 1 == layers_.size()) break;
    // Sign activation, packed straight into the next layer's input.
    act.resize(packed_words(out.size()));
    pack_signs(out.data(), out.size(), act.data());
    cur = act.data();
  }
}

std::size_t PackedBnn::predict(const std::uint64_t* x) const {
  std::vector<float> s;
  class_scores(x, s);
  return static_cast<std::size_t>(std::max_element(s.begin(), s.end()) -
                                  s.begin());
}

}  // namespace esam::nn
