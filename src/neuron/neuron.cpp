#include "esam/neuron/neuron.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "esam/tech/calibration.hpp"

namespace esam::neuron {
namespace {

/// Register setup + clock skew folded into the accumulate stage.
constexpr double kSetupPs = 30.0;
/// FO4 per adder-tree level (carry-save rows).
constexpr double kFo4PerLevel = 2.0;
/// FO4 of the {1,0}->{+1,-1} decode and validity gating.
constexpr double kDecodeFo4 = 4.0;
/// Gate count model pieces (fitted jointly with the Fig. 8 area ratio).
constexpr double kGatesPerAdderBit = 2.5;
constexpr double kGatesPerRegisterBit = 1.2;
constexpr double kCompareGatesPerBit = 0.66;
constexpr double kGateAreaUm2 = 0.05;

double adder_levels(std::size_t ports) {
  // Summing p valid +-1 inputs into the accumulator: ceil(log2(p + 1))
  // carry-save levels (the +1 is the Vmem feedback operand).
  return std::ceil(std::log2(static_cast<double>(ports) + 1.0));
}

}  // namespace

void NeuronConfig::validate() const {
  if (vmem_bits < 2 || vmem_bits > 31 || vth_bits < 2 || vth_bits > 31) {
    throw std::invalid_argument(
        "NeuronConfig: register widths must be in [2, 31]");
  }
}

NeuronArrayModel::NeuronArrayModel(const tech::TechnologyParams& tech,
                                   NeuronConfig cfg, std::size_t ports)
    : tech_(&tech), cfg_(cfg), ports_(std::max<std::size_t>(ports, 1)) {}

util::Time NeuronArrayModel::accumulate_delay() const {
  const double fo4 = util::in_picoseconds(tech_->fo4_delay);
  const double raw_ps =
      kSetupPs + fo4 * (kDecodeFo4 + kFo4PerLevel * adder_levels(ports_));
  // Self-calibration against the Table 2 stage split: the raw model is a few
  // picoseconds off the published per-cell values; scale per port count.
  const std::size_t idx = std::min<std::size_t>(ports_, 4);
  const double anchor_ps = tech::calib::kNeuronStageNs[idx] * 1e3;
  const double raw_anchor_ps =
      kSetupPs +
      fo4 * (kDecodeFo4 +
             kFo4PerLevel * adder_levels(std::max<std::size_t>(idx, 1)));
  return util::picoseconds(raw_ps * (anchor_ps / raw_anchor_ps));
}

util::Energy NeuronArrayModel::accumulate_energy(
    std::size_t active_inputs) const {
  const double vdd = util::in_volts(tech_->vdd);
  const double gate_cap =
      util::in_femtofarads(tech_->min_inverter_cap) * 1e-15 * 4.0;
  const double switched =
      static_cast<double>(cfg_.vmem_bits) *
      (1.0 + static_cast<double>(active_inputs)) * 0.55;
  return util::joules(switched * gate_cap * vdd * vdd);
}

util::Energy NeuronArrayModel::compare_energy() const {
  const double vdd = util::in_volts(tech_->vdd);
  const double gate_cap =
      util::in_femtofarads(tech_->min_inverter_cap) * 1e-15 * 4.0;
  return util::joules(static_cast<double>(cfg_.vmem_bits) *
                      kCompareGatesPerBit * gate_cap * vdd * vdd);
}

util::Area NeuronArrayModel::area_per_neuron() const {
  const double adder_gates =
      static_cast<double>(cfg_.vmem_bits) * kGatesPerAdderBit *
      (static_cast<double>(ports_) * 0.5);
  const double register_gates =
      static_cast<double>(cfg_.vmem_bits + cfg_.vth_bits + 2) *
      kGatesPerRegisterBit;
  const double compare_gates =
      static_cast<double>(cfg_.vmem_bits) * kCompareGatesPerBit;
  return util::square_microns(
      (adder_gates + register_gates + compare_gates) * kGateAreaUm2);
}

util::Power NeuronArrayModel::leakage_per_neuron() const {
  const double gates =
      util::in_square_microns(area_per_neuron()) / kGateAreaUm2;
  return tech_->gate_leakage * (gates * 0.2);
}

}  // namespace esam::neuron
