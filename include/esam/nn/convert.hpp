// BNN -> Binary-SNN conversion with per-neuron thresholds (paper sec. 4.4.2,
// following the XNOR-free formulation of Kim et al., ICCAD'20 [15]).
//
// A trained BNN layer computes  a_j = sum_i Wb_ji * xb_i + b_j  with
// Wb, xb in {-1,+1}. Writing x01 = (xb+1)/2 for the spike representation and
// S_j = sum_i Wb_ji, the pre-activation becomes  a_j = 2 L_j - S_j + b_j,
// where  L_j = sum_{i : spike} (2 W01_ji - 1)  is exactly what the ESAM
// neuron accumulates: for every granted input spike, +1 when the stored
// weight bit is 1 and -1 when it is 0 -- no XNOR with the input needed, and
// no dependence on the total spike count.
//
// Hence the BNN decision  a_j >= 0  is equivalent to the integer comparison
// L_j >= ceil((S_j - b_j) / 2) =: Vth_j, giving a *bit-exact* Binary-SNN:
// the converted network classifies identically to the BNN (verified by the
// equivalence tests). The output layer does not spike; its class scores are
// read as Vmem_j - (S_j - b_j)/2 (a per-neuron readout offset).
//
// Scoring reads neuron j's weight column as one word row (bit i = W01_ji),
// so L_j = 2 * |spikes & col_j| - |spikes|: one popcount per neuron, the
// identity the tile's closed-form burst evaluates on its macros' columns.
// The column copy is private and built once per network; SnnLayer's
// pre-synaptic weight_rows stay the exchange format (tile deployment,
// checkpoints, learning read-back).
#pragma once

#include <cstdint>
#include <vector>

#include "esam/nn/bnn.hpp"
#include "esam/util/bitvec.hpp"

namespace esam::nn {

using util::BitVec;

/// One converted layer: weight bits stored pre-synaptically (one BitVec per
/// input row, matching the SRAM crossbar layout of Fig. 1(b)).
struct SnnLayer {
  /// weight_rows[i].test(j) is W01 for pre-neuron i -> post-neuron j.
  std::vector<BitVec> weight_rows;
  /// Integer firing thresholds Vth_j = ceil((S_j - b_j)/2).
  std::vector<std::int32_t> thresholds;
  /// Float readout offsets (S_j - b_j)/2 for score reconstruction on the
  /// output layer.
  std::vector<float> readout_offsets;

  [[nodiscard]] std::size_t in_features() const { return weight_rows.size(); }
  [[nodiscard]] std::size_t out_features() const { return thresholds.size(); }
};

/// The converted Binary-SNN: a software reference model, independent of the
/// hardware simulator (the cycle-accurate simulator must agree with it).
class SnnNetwork {
 public:
  SnnNetwork() = default;

  /// Converts a trained BNN (exact, see header comment).
  static SnnNetwork from_bnn(const BnnNetwork& bnn);

  /// Builds a network from hand-made layers (online-learning scenarios and
  /// tests that do not start from a trained BNN). Validates that each
  /// layer's fields agree in size and that consecutive layers chain.
  static SnnNetwork from_layers(std::vector<SnnLayer> layers);

  [[nodiscard]] const std::vector<SnnLayer>& layers() const { return layers_; }
  [[nodiscard]] std::vector<std::size_t> shape() const;

  /// Accumulated +-1 sums L_j = 2 * |spikes & col_j| - |spikes| of layer
  /// `layer` for the given input spikes.
  [[nodiscard]] std::vector<std::int32_t> accumulate(
      std::size_t layer, const BitVec& spikes) const;

  /// Spikes emitted by a (hidden) layer: L_j >= Vth_j.
  [[nodiscard]] static BitVec fire(const SnnLayer& layer,
                                   const std::vector<std::int32_t>& vmem);

  /// Full-network classification for an input spike vector.
  [[nodiscard]] std::size_t predict(const BitVec& input_spikes) const;

  /// Layer-by-layer spike trace (input, hidden spikes..., output Vmem).
  struct Trace {
    std::vector<BitVec> spikes;               ///< input + each hidden layer
    std::vector<std::int32_t> output_vmem;    ///< last-layer accumulators
    std::vector<float> output_scores;         ///< vmem - readout offset
  };
  [[nodiscard]] Trace trace(const BitVec& input_spikes) const;

  [[nodiscard]] double accuracy(const std::vector<BitVec>& xs,
                                const std::vector<std::uint8_t>& ys) const;

  /// Total stored weight bits (the paper's "synapse count": 330K).
  [[nodiscard]] std::size_t synapse_count() const;
  /// Total neurons (the paper's 778).
  [[nodiscard]] std::size_t neuron_count() const;

 private:
  std::vector<SnnLayer> layers_;
  /// layers_[l]'s weights column-major, fixed at construction: neuron j's
  /// column at [j * w, +w) with w = packed words of the layer's inputs
  /// (the layout of PackedLayer::rows).
  std::vector<std::vector<std::uint64_t>> columns_;
};

/// Converts a {-1,+1} activation vector to a spike vector ('+1' -> spike).
[[nodiscard]] BitVec to_spikes(const std::vector<float>& bipolar);

/// Number of weight bits that differ between two equally-shaped layers
/// (e.g. a Tile::export_layer read-back vs the deployed baseline). Throws
/// on a shape mismatch.
[[nodiscard]] std::size_t weight_diff_count(const SnnLayer& a,
                                            const SnnLayer& b);

}  // namespace esam::nn
