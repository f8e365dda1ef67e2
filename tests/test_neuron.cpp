// Tests for the neuron array cost model (Fig. 5). The neuron registers'
// behaviour -- saturation, fire and reset, width and threshold checks -- is
// the tile's and is tested in test_tile.cpp.
#include <gtest/gtest.h>

#include "esam/neuron/neuron.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/tech/technology.hpp"

namespace esam::neuron {
namespace {

TEST(NeuronArrayModel, AccumulateDelayMatchesTable2Split) {
  const auto& t = tech::imec3nm();
  for (std::size_t ports = 1; ports <= 4; ++ports) {
    const NeuronArrayModel m(t, {}, ports);
    EXPECT_NEAR(util::in_nanoseconds(m.accumulate_delay()),
                tech::calib::kNeuronStageNs[ports], 1e-6)
        << "ports " << ports;
  }
  // The 6T baseline (0 decoupled ports) behaves as a 1-input neuron.
  const NeuronArrayModel m0(t, {}, 0);
  EXPECT_NEAR(util::in_nanoseconds(m0.accumulate_delay()),
              tech::calib::kNeuronStageNs[1], 1e-6);
}

TEST(NeuronArrayModel, EnergyGrowsWithActiveInputs) {
  const NeuronArrayModel m(tech::imec3nm(), {}, 4);
  EXPECT_GT(m.accumulate_energy(4).base(), m.accumulate_energy(1).base());
  EXPECT_GT(m.compare_energy().base(), 0.0);
}

TEST(NeuronArrayModel, AreaGrowsWithPortsAndWidths) {
  const auto& t = tech::imec3nm();
  const NeuronArrayModel p1(t, {}, 1);
  const NeuronArrayModel p4(t, {}, 4);
  EXPECT_GT(util::in_square_microns(p4.area_per_neuron()),
            util::in_square_microns(p1.area_per_neuron()));
  const NeuronArrayModel wide(t, {.vmem_bits = 16, .vth_bits = 16}, 4);
  EXPECT_GT(util::in_square_microns(wide.area_per_neuron()),
            util::in_square_microns(p4.area_per_neuron()));
  EXPECT_GT(p4.leakage_per_neuron().base(), 0.0);
}

}  // namespace
}  // namespace esam::neuron
