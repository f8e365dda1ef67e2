// Stochastic STDP with 1-bit synapses (paper refs [16, 17]).
//
// ESAM's online-learning story: learning events are post-synaptic -- when a
// post-neuron fires (or a supervised teacher marks it), all synapses feeding
// it (one SRAM *column*) are updated. With 1-bit weights the practical rule
// (Yousefzadeh et al.) is stochastic:
//   * pre-synaptic neuron spiked in the causal window  -> set W := 1 with
//     probability p_pot (potentiation);
//   * pre did not spike                                -> set W := 0 with
//     probability p_dep (depression).
// An anti-causal (punish) variant swaps the two directions, which gives a
// simple supervised teacher for the examples.
//
// The hardware cost of one update is a column read-modify-write through the
// transposed RW port (sec. 4.4.1): 4 + 4 muxed accesses for the multiport
// cells versus 2 x 128 row accesses for the 6T baseline.
#pragma once

#include <cstdint>

#include "esam/util/bitvec.hpp"
#include "esam/util/rng.hpp"

namespace esam::learning {

using util::BitVec;

struct StdpConfig {
  double p_potentiation = 0.10;  ///< probability of setting W=1 on causal pre
  double p_depression = 0.05;    ///< probability of clearing W on silent pre
  std::uint64_t seed = 1234;
};

/// The fine-tuning operating point: gentle rates for adapting an already
/// gradient-trained network in the field. Such an output layer is close to
/// optimal, so each miss may only nudge its columns -- aggressive rates
/// (>~0.2, right for learning from scratch) demonstrably erase the deployed
/// structure faster than they adapt it. Each caller picks its own seed.
[[nodiscard]] constexpr StdpConfig fine_tune_stdp(std::uint64_t seed) {
  return {.p_potentiation = 0.05, .p_depression = 0.015, .seed = seed};
}

/// Applies the stochastic rule to one weight column.
class StochasticStdp {
 public:
  explicit StochasticStdp(StdpConfig cfg);

  [[nodiscard]] const StdpConfig& config() const { return cfg_; }

  /// Returns the updated weight column for a rewarded (causal) event:
  /// weights[i] is the 1-bit synapse from pre-neuron i.
  BitVec potentiate(const BitVec& weights, const BitVec& pre_spikes);

  /// Anti-causal update (used as a supervised "punish" signal): spiking pre
  /// synapses are stochastically cleared, silent ones set.
  BitVec depress(const BitVec& weights, const BitVec& pre_spikes);

 private:
  BitVec apply(const BitVec& weights, const BitVec& pre_spikes,
               bool causal_sets_one);

  StdpConfig cfg_;
  util::Rng rng_;
};

}  // namespace esam::learning
