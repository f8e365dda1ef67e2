// Exact bit-packed forward of a BnnNetwork (paper sec. 4.4.2).
//
// With x and a weight row w both in {-1,+1}^n, and bits() mapping +1 -> 1
// and -1 -> 0,
//     w . x = n - 2 * popcount(bits(x) XOR bits(w)),
// so every BNN pre-activation is an integer plus a float bias. PackedLayer
// stores a layer's deployed weights as one row of 64-bit words per output
// neuron and evaluates
//     z_j = float(n - 2 * popcount(x ^ w_j)) + bias_j
// with the runtime-dispatched util::simd xor_count kernel. The result is
// bit-identical to the serial float dot product (the oracle in
// tests/bnn_oracle.hpp): a float sum of +-1 terms is an exact
// integer while it stays below 2^24 in magnitude (BnnNetwork::load caps
// fan-in at 2^20), and the bias is added last in both.
//
// Packing rule: bit i is set iff v[i] >= 0.0f -- the test binary_weight()
// and sign_activation() apply -- so -0.0f packs as +1 and NaN as -1. A
// sign-bit extraction (movemask and friends) is NOT equivalent: it maps
// -0.0f to -1 and a positive-sign NaN to +1. Tail bits beyond n are zero,
// so they never count as disagreements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "esam/nn/bnn.hpp"

namespace esam::nn {

/// 64-bit words holding `n` packed signs.
[[nodiscard]] constexpr std::size_t packed_words(std::size_t n) {
  return (n + 63) / 64;
}

/// Packs v[0..n) into packed_words(n) words at `dst`: bit i set iff
/// v[i] >= 0.0f; tail bits zero.
void pack_signs(const float* v, std::size_t n, std::uint64_t* dst);

/// One BnnLayer's deployed weights as sign bits, plus its bias.
struct PackedLayer {
  std::size_t in;
  std::size_t out;
  /// Words per row (packed_words(in)).
  std::size_t words;
  /// Row-major, out x words: row j holds the signs of latent(j, 0..in).
  std::vector<std::uint64_t> rows;
  std::vector<float> bias;

  explicit PackedLayer(const BnnLayer& layer);

  /// z[j] = float(in - 2 * popcount(x ^ row_j)) + bias[j] for j < out, with
  /// `x` one packed input of `words` words.
  void forward(const std::uint64_t* x, float* z) const;
};

/// A BnnNetwork's packed layers and the forward through sign activations.
class PackedBnn {
 public:
  explicit PackedBnn(const BnnNetwork& net);

  [[nodiscard]] const std::vector<PackedLayer>& layers() const {
    return layers_;
  }

  /// Class scores (the last layer's pre-activations) for one packed input
  /// of packed_words(layers().front().in) words.
  void class_scores(const std::uint64_t* x, std::vector<float>& out) const;

  /// argmax of class_scores (the first maximum on ties).
  [[nodiscard]] std::size_t predict(const std::uint64_t* x) const;

 private:
  std::vector<PackedLayer> layers_;
};

}  // namespace esam::nn
