#include "esam/learning/online_learner.hpp"

#include <algorithm>
#include <stdexcept>

namespace esam::learning {

OnlineLearner::OnlineLearner(arch::Tile& tile, StdpConfig cfg)
    : tile_(&tile), rule_(cfg) {}

void OnlineLearner::reward(std::size_t j, const util::BitVec& pre_spikes) {
  const PendingUpdate e{pre_spikes, j, /*causal=*/true};
  const PendingUpdate* ep = &e;
  apply_column(j, std::span<const PendingUpdate* const>(&ep, 1));
}

void OnlineLearner::punish(std::size_t j, const util::BitVec& pre_spikes) {
  const PendingUpdate e{pre_spikes, j, /*causal=*/false};
  const PendingUpdate* ep = &e;
  apply_column(j, std::span<const PendingUpdate* const>(&ep, 1));
}

Time OnlineLearner::apply_column(
    std::size_t j, std::span<const PendingUpdate* const> events) {
  if (events.empty()) return Time{};
  const arch::TileConfig& cfg = tile_->config();
  if (j >= cfg.outputs) {
    throw std::out_of_range("OnlineLearner: post-neuron index out of range");
  }
  for (const PendingUpdate* e : events) {
    if (e->column != j) {
      throw std::invalid_argument(
          "OnlineLearner::apply_column: event aimed at a different column");
    }
    if (e->pre.size() != cfg.inputs) {
      throw std::invalid_argument("OnlineLearner: pre-spike width mismatch");
    }
  }
  const std::size_t cg = j / cfg.max_array_dim;
  const std::size_t local_col = j % cfg.max_array_dim;

  Time worst_time{};
  std::ptrdiff_t flipped_to_one = 0;
  for (std::size_t rg = 0; rg < tile_->row_groups(); ++rg) {
    sram::SramMacro& m = tile_->macro(rg, cg);
    const std::size_t rows = m.geometry().rows;
    const std::size_t row0 = rg * cfg.max_array_dim;

    // Column read-modify-write through the RW port (priced by
    // column_update_cost(); time parallel across row-groups). The
    // staged events fold over the in-flight value in staged order: each
    // event draws its own Bernoulli masks, but the port traffic -- one read
    // and one write -- is paid once per commit, which is the delayed-update
    // throughput win (arXiv:2412.05302).
    const util::BitVec old_weights = m.read_column(local_col);
    util::BitVec updated = old_weights;
    for (const PendingUpdate* e : events) {
      // Pre-synaptic slice of this row-group (word-packed; this is a per-
      // update hot path once the system trainer drives it).
      const util::BitVec pre = e->pre.slice(row0, rows);
      updated = e->causal ? rule_.potentiate(updated, pre)
                          : rule_.depress(updated, pre);
    }
    m.write_column(local_col, updated);
    // Measure what the array actually stores, not what we asked for:
    // stuck-at cells silently ignore writes, and the offset must track the
    // *observable* column sum. Pristine arrays store exactly `updated`, so
    // only faulty macros re-read the column (a word copy) to count it.
    const std::size_t stored_ones = m.has_faults()
                                        ? m.read_column(local_col).count()
                                        : updated.count();
    flipped_to_one += static_cast<std::ptrdiff_t>(stored_ones) -
                      static_cast<std::ptrdiff_t>(old_weights.count());

    const sram::OpProfile cost = m.column_update_cost();
    worst_time = std::max(worst_time, cost.time);
    stats_.energy += cost.energy;
  }
  // Keep the readout consistent: every 0->1 flip moves the column sum S_j
  // by +2, i.e. the stored offset (S_j - b_j)/2 by +1.
  if (flipped_to_one != 0) {
    tile_->adjust_readout_offset(j, static_cast<float>(flipped_to_one));
  }
  stats_.time += worst_time;
  stats_.column_updates += events.size();
  ++stats_.column_rmws;
  return worst_time;
}

}  // namespace esam::learning
