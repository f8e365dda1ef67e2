// Binary Neural Network training substrate (paper sec. 4.4.2).
//
// The paper trains the MNIST network "as a Binary Neural Network (BNN) with
// a sign activation function and per-neuron biases", then converts it to a
// Binary-SNN with per-neuron thresholds following Kim et al. (ICCAD'20).
// This module implements that trainer from scratch:
//  * fully-connected layers with latent float weights, binarized on the
//    forward pass to {-1,+1} (latent >= 0.0f -> +1, so -0.0f -> +1 and
//    NaN -> -1), and float per-neuron biases;
//  * sign activations with straight-through-estimator (STE) gradients
//    (gradient passed where |preact| <= sqrt(fan_in), else clipped);
//  * softmax cross-entropy on the last layer's (binary-weight) scores;
//  * Adam updates on the latent weights with [-1, 1] clipping.
//
// The forward never multiplies floats. Inputs, weights and hidden
// activations are all +-1, so a pre-activation is the packed identity
//     z_j = float(n - 2 * popcount(x ^ w_j)) + bias_j
// evaluated by PackedBnn (esam/nn/packed.hpp) on sign bits packed with the
// same >= 0.0f rule. It is bit-identical to the serial float dot product:
// a float sum of +-1 terms is an exact integer below 2^24 in magnitude
// (load() caps fan-in at 2^20) and the bias is added last. So scores,
// argmax, STE masks, gradients and saved caches match the float forward,
// the oracle in tests/bnn_oracle.hpp.
//
// The backward, the STE and Adam are float, and exact to the oracle's
// per-sample loops too. The trainer runs the forward for a whole batch,
// then goes back one layer at a time: each weight-gradient row and each
// sample's dA = dZ Wb is one sum over the nonzero dZ entries of +-1 rows,
// kept in registers over 32-column blocks. Every product is +-dz, exact,
// and each element sees the same float additions in the same order, from
// +0, as the per-sample outer product; so gradients, and the bytes of a
// saved cache, do not change. Adam is the util::simd adam_step kernel
// (IEEE ops in the oracle's order, on every backend).
//
// Each batch runs in phases on every core (util::parallel_for, one worker
// per hardware thread): the forward and softmax per sample, then per layer,
// top down, the gradient per weight row and dA per sample, then Adam per
// latent row, fused with re-packing that row's signs for the next batch
// (the biases follow, one short Adam call per layer). Each row or sample
// writes outputs no other one touches, with the serial loop's operations
// in its order, and the losses are summed in sample order afterwards; so
// the trained bytes are the same for any worker count.
//
// Every worker computes under util::FlushDenormals: decayed Adam moments
// would otherwise go subnormal and stall x86 on every touch. Progress
// logging runs outside it, in the caller's mode. That flush is not exact by
// construction; tests/test_nn.cpp pins the saved bytes against the
// unflushed oracle over a run that reaches subnormal moments.
//
// Inputs must be exactly +-1.0f and as wide as the first layer: predict(),
// accuracy(), fit() and train_epoch() throw std::invalid_argument naming
// the offending sample otherwise, and the trainer checks the whole dataset
// before its first update.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "esam/nn/matrix.hpp"
#include "esam/util/rng.hpp"

namespace esam::nn {

/// One binarized fully-connected layer.
struct BnnLayer {
  /// Latent (real-valued) weights, out x in; binarize() gives the deployed
  /// {-1,+1} weights.
  Matrix latent;
  /// Per-neuron bias (float, not binarized -- it folds into the SNN
  /// threshold during conversion).
  std::vector<float> bias;

  BnnLayer() = default;
  BnnLayer(std::size_t out, std::size_t in, util::Rng& rng);

  [[nodiscard]] std::size_t in_features() const { return latent.cols(); }
  [[nodiscard]] std::size_t out_features() const { return latent.rows(); }

  /// Deployed binary weight: sign(latent) in {-1,+1} (sign(0) := +1).
  [[nodiscard]] float binary_weight(std::size_t out, std::size_t in) const;
};

/// Sign activation in {-1,+1} with sign(0) := +1 (matches the SNN mapping
/// where a neuron at exactly threshold fires).
float sign_activation(float x);

/// A stack of BnnLayers: hidden layers use sign activations; the last
/// layer's pre-activations are the class scores.
class BnnNetwork {
 public:
  BnnNetwork() = default;
  /// `shape` e.g. {768, 256, 256, 256, 10}.
  BnnNetwork(const std::vector<std::size_t>& shape, util::Rng& rng);

  [[nodiscard]] const std::vector<BnnLayer>& layers() const { return layers_; }
  [[nodiscard]] std::vector<BnnLayer>& layers() { return layers_; }
  [[nodiscard]] std::vector<std::size_t> shape() const;

  /// argmax of the class scores for a {-1,+1} input vector.
  [[nodiscard]] std::size_t predict(const std::vector<float>& x) const;

  /// Fraction of correct predictions; packs the weights once per call.
  [[nodiscard]] double accuracy(const std::vector<std::vector<float>>& xs,
                                const std::vector<std::uint8_t>& ys) const;

  /// Binary serialization (latent weights + biases) for caching trained
  /// models between bench runs. save() writes to a temp file and renames it
  /// into place (atomic on POSIX: concurrent readers never see a torn
  /// cache) and stamps a CRC-32 over the payload; load() rejects any file
  /// whose checksum or framing does not hold -- including pre-CRC v1
  /// caches -- so callers simply retrain on false.
  bool save(const std::string& path) const;
  static bool load(const std::string& path, BnnNetwork& out);

 private:
  std::vector<BnnLayer> layers_;
};

struct PackedLayer;  // esam/nn/packed.hpp

/// Adam + STE trainer.
struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 64;
  float learning_rate = 3e-3f;
  float adam_beta1 = 0.9f;
  float adam_beta2 = 0.999f;
  float adam_eps = 1e-8f;
  std::uint64_t seed = 42;
  /// Progress callback interval in batches (0 = silent).
  std::size_t log_every = 0;
  /// Sink for progress lines when log_every != 0. Defaults to stderr --
  /// the library never writes to stdout (esam_lint rule no-stdout), so a
  /// CLI embedding the trainer keeps a clean report stream. A plain
  /// pointer + context (not std::function) keeps the config trivially
  /// copyable and clear of GCC 12's std::function-in-aggregate
  /// -Wmaybe-uninitialized false positive under -Werror.
  void (*log_sink)(const std::string& line, void* ctx) = nullptr;
  void* log_ctx = nullptr;
};

class BnnTrainer {
 public:
  /// Throws std::invalid_argument when cfg.batch_size is 0.
  BnnTrainer(BnnNetwork& net, TrainConfig cfg);
  ~BnnTrainer();  // out of line: PackedLayer is incomplete here

  /// One full epoch over (xs, ys); returns mean cross-entropy loss.
  double train_epoch(const std::vector<std::vector<float>>& xs,
                     const std::vector<std::uint8_t>& ys);

  /// Full training run; returns final training loss. Packs the inputs once.
  double fit(const std::vector<std::vector<float>>& xs,
             const std::vector<std::uint8_t>& ys);

 private:
  /// Validates (xs, ys) and packs every input's sign bits, one row of
  /// packed words per sample.
  [[nodiscard]] std::vector<std::uint64_t> pack_dataset(
      const std::vector<std::vector<float>>& xs,
      const std::vector<std::uint8_t>& ys) const;
  double run_epoch(const std::vector<std::vector<float>>& xs,
                   const std::vector<std::uint64_t>& packed_xs,
                   const std::vector<std::uint8_t>& ys);
  /// One Adam step on samples idx[begin, end), each worker under
  /// util::FlushDenormals.
  void train_batch(const std::vector<std::vector<float>>& xs,
                   const std::vector<std::uint64_t>& packed_xs,
                   const std::vector<std::uint8_t>& ys,
                   const std::vector<std::size_t>& idx, std::size_t begin,
                   std::size_t end, double& loss_sum);

  BnnNetwork* net_;
  TrainConfig cfg_;
  util::Rng rng_;
  // Adam state per layer.
  std::vector<Matrix> m_w_, v_w_;
  std::vector<std::vector<float>> m_b_, v_b_;
  std::uint64_t step_ = 0;
  // The network's deployed weights, kept in step with its latent weights:
  // packed signs and biases per layer (the forward), and the +-1 weights
  // as floats (l >= 1, for dA = dZ Wb). Built per epoch, updated per row
  // by the Adam phase.
  std::vector<PackedLayer> packed_;
  std::vector<Matrix> wb_;
  // Per-batch state, reused across batches. Per layer l: the gradients and
  // batch-major buffers: pre-activations z_[l] and their gradients dz_[l]
  // (batch x out) and the +-1 inputs act_[l] (batch x in, l >= 1; layer 0
  // reads the samples). loss_[s] is sample s's -log p.
  std::vector<Matrix> grad_w_;
  std::vector<std::vector<float>> grad_b_, z_, dz_, act_;
  std::vector<double> loss_;
  // One slot per parallel_for worker: a hidden input's packed signs, and
  // one weighted row sum's terms (the rows and their nonzero
  // coefficients). Aligned apart so that workers share no cache line.
  struct alignas(64) WorkerScratch {
    std::vector<std::uint64_t> bits;
    std::vector<const float*> term_rows;
    std::vector<float> term_coefs;
  };
  std::vector<WorkerScratch> scratch_;
};

}  // namespace esam::nn
