#include "esam/arch/rate_coded.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace esam::arch {

BitVec RateEncoder::encode(const std::vector<float>& intensities) {
  BitVec spikes(intensities.size());
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    const double p = std::clamp(static_cast<double>(intensities[i]), 0.0, 1.0);
    if (rng_.bernoulli(p)) spikes.set(i);
  }
  return spikes;
}

RateCodedRunner::RateCodedRunner(const TechnologyParams& tech,
                                 const nn::SnnNetwork& snn,
                                 TileConfig prototype, std::size_t timesteps)
    : timesteps_(timesteps) {
  if (snn.layers().empty()) {
    throw std::invalid_argument("RateCodedRunner: empty network");
  }
  if (timesteps == 0) {
    throw std::invalid_argument("RateCodedRunner: timesteps must be > 0");
  }
  tiles_.reserve(snn.layers().size());
  for (std::size_t l = 0; l < snn.layers().size(); ++l) {
    const nn::SnnLayer& layer = snn.layers()[l];
    TileConfig tc = prototype;
    tc.inputs = layer.in_features();
    tc.outputs = layer.out_features();
    tc.carry_membrane = true;
    tc.is_output_layer = (l + 1 == snn.layers().size());
    tiles_.emplace_back(tech, tc);
    tiles_.back().load_layer(layer);
  }
  readout_offsets_ = snn.layers().back().readout_offsets;
}

void RateCodedRunner::attach_ledger(EnergyLedger* ledger) {
  for (auto& t : tiles_) t.attach_ledger(ledger);
}

void RateCodedRunner::reset_membranes() {
  for (auto& t : tiles_) t.reset_membranes();
}

std::uint64_t RateCodedRunner::run_timestep(const BitVec& spikes) {
  std::vector<std::uint64_t> busy(tiles_.size());
  BitVec handoff;
  (void)walk_cascade(tiles_, spikes, handoff, busy,
                     [](std::size_t, const Tile&) {});
  return std::accumulate(busy.begin(), busy.end(), std::uint64_t{0});
}

RateCodedResult RateCodedRunner::classify(
    const std::vector<float>& intensities, RateEncoder& encoder) {
  if (intensities.size() != tiles_.front().config().inputs) {
    throw std::invalid_argument("RateCodedRunner: input width mismatch");
  }
  reset_membranes();
  RateCodedResult out;
  for (std::size_t t = 0; t < timesteps_; ++t) {
    const BitVec spikes = encoder.encode(intensities);
    out.total_input_spikes += spikes.count();
    out.cycles += run_timestep(spikes);
  }
  // The output tile carried its membranes: Vmem now holds the sum of the
  // per-timestep accumulations; the readout offset scales with T.
  const std::vector<std::int32_t> vmem = tiles_.back().output_vmem();
  out.scores.resize(vmem.size());
  for (std::size_t j = 0; j < vmem.size(); ++j) {
    out.scores[j] = static_cast<float>(vmem[j]) -
                    static_cast<float>(timesteps_) * readout_offsets_[j];
  }
  out.prediction = static_cast<std::size_t>(
      std::max_element(out.scores.begin(), out.scores.end()) -
      out.scores.begin());
  return out;
}

}  // namespace esam::arch
