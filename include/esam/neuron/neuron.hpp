// ESAM Integrate-and-Fire neuron array (paper sec. 3.4, Fig. 5).
//
// Each column of a tile hosts one neuron: an m-bit signed membrane register
// Vmem and a t-bit signed threshold register Vth. Every cycle the neuron
// decodes the sensed bits of its granted ports {1,0} -> {+1,-1}, sums them
// and adds the sum to Vmem, saturating at the m-bit rails. When the tile's
// arbiters report R_empty (all input spikes of the inference served), each
// neuron compares Vmem >= Vth; a firing neuron raises its output request r
// and resets Vmem to zero, and r clears when the downstream tile takes the
// spikes. arch::Tile owns the registers as int32 arrays; this header holds
// their widths (NeuronConfig) and the array's cost model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "esam/tech/technology.hpp"
#include "esam/util/units.hpp"

namespace esam::neuron {

/// Register widths of the neuron datapath, and the one owner of the rules
/// they imply.
struct NeuronConfig {
  /// Vmem register width m (signed); must accommodate the worst-case sum of
  /// +-1 contributions over one inference (fan-in bounded).
  unsigned vmem_bits = 12;
  /// Vth register width t (signed).
  unsigned vth_bits = 12;

  /// Throws std::invalid_argument unless both widths are in [2, 31].
  void validate() const;
  /// The saturation rails of the m-bit Vmem register (valid widths only).
  [[nodiscard]] std::int32_t vmem_max() const {
    return (std::int32_t{1} << (vmem_bits - 1)) - 1;
  }
  [[nodiscard]] std::int32_t vmem_min() const {
    return -(std::int32_t{1} << (vmem_bits - 1));
  }
  /// Whether `vth` fits the t-bit Vth register (valid widths only).
  [[nodiscard]] bool vth_fits(std::int32_t vth) const {
    const std::int32_t half = std::int32_t{1} << (vth_bits - 1);
    return vth >= -half && vth < half;
  }
};

/// Timing / energy / area model of a column of neurons fed by `ports`
/// simultaneous bitlines (calibrated against the Table 2 stage split).
class NeuronArrayModel {
 public:
  NeuronArrayModel(const tech::TechnologyParams& tech, NeuronConfig cfg,
                   std::size_t ports);

  /// Delay of the decode + p-input adder tree + Vmem update stage.
  [[nodiscard]] util::Time accumulate_delay() const;
  /// Energy of one neuron accumulating `active_inputs` valid bits.
  [[nodiscard]] util::Energy accumulate_energy(std::size_t active_inputs) const;
  /// Energy of the R_empty threshold comparison (+ possible fire/reset).
  [[nodiscard]] util::Energy compare_energy() const;
  /// Area of one neuron (adder + registers + compare + control).
  [[nodiscard]] util::Area area_per_neuron() const;
  [[nodiscard]] util::Power leakage_per_neuron() const;

 private:
  const tech::TechnologyParams* tech_;
  NeuronConfig cfg_;
  std::size_t ports_;
};

}  // namespace esam::neuron
