// Online-learning engine: drives STDP column updates through a Tile's
// SRAM macros and accounts their hardware cost (paper sec. 4.4.1).
//
// A post-synaptic learning event on neuron j updates the weight column j
// across every row-group of the tile. The row-groups own independent
// transposed ports, so their column updates proceed in parallel: wall-clock
// time is one column read-modify-write; energy is summed over row-groups.
// For the 6T baseline tile the same update costs 2 x rows row accesses per
// row-group -- the 26.0x / 19.5x gap the paper reports.
//
// Delayed (k-step) updates: apply_column() takes a whole *batch* of staged
// events aimed at one column and applies them through a single read-modify-
// write -- the read and write port traffic is paid once per distinct column
// per commit window, while every staged event still draws its own Bernoulli
// masks in staged order. LearningStats therefore tracks both counts:
// `column_updates` (staged learning events, comparable across window sizes)
// and `column_rmws` (physical transposed-port read-modify-writes, what the
// energy/time actually scale with).
#pragma once

#include <cstdint>
#include <span>

#include "esam/arch/tile.hpp"
#include "esam/learning/stdp.hpp"
#include "esam/util/ledger.hpp"
#include "esam/util/units.hpp"

namespace esam::learning {

using util::Energy;
using util::Time;

struct LearningStats {
  /// Staged learning events applied (one per reward/punish observation).
  std::uint64_t column_updates = 0;
  /// Physical column read-modify-writes through the transposed port. Equal
  /// to column_updates at update_interval 1; smaller when a commit window
  /// coalesces repeated events on one column.
  std::uint64_t column_rmws = 0;
  Time time{};      ///< wall-clock learning time (row-groups in parallel)
  Energy energy{};  ///< total energy of the updates

  /// Component-wise difference (this - start); for per-epoch costing.
  [[nodiscard]] LearningStats since(const LearningStats& start) const {
    return {column_updates - start.column_updates,
            column_rmws - start.column_rmws, time - start.time,
            energy - start.energy};
  }
};

/// One staged (delayed) column update: the observation of a forward pass,
/// recorded by a LearningRule hook and applied to the SRAM at commit time.
struct PendingUpdate {
  util::BitVec pre;        ///< pre-synaptic spikes of the triggering forward
  std::size_t column = 0;  ///< post-neuron / weight-column index
  bool causal = true;      ///< true = reward (potentiate), false = punish
};

/// One committed column read-modify-write: the column written and its RW
/// port time (OnlineLearner::apply_column's return value).
struct ColumnRmw {
  std::size_t column = 0;
  Time time{};
};

class OnlineLearner {
 public:
  OnlineLearner(arch::Tile& tile, StdpConfig cfg);

  /// Applies one causal (reward) STDP update to post-neuron `j`, given the
  /// tile-wide pre-synaptic spike vector of the triggering inference.
  void reward(std::size_t j, const util::BitVec& pre_spikes);

  /// Applies one anti-causal (punish) update.
  void punish(std::size_t j, const util::BitVec& pre_spikes);

  /// Applies a batch of staged events to column `j` through one read-modify-
  /// write per row-group: read once, fold every event's stochastic mask over
  /// the in-flight value in staged order, write once. With a single event
  /// this is bit-identical (weights, Bernoulli stream, stats, energy) to
  /// reward()/punish(). Every event must target column `j`. Returns the
  /// RMW's port time: the slowest row-group's, since they run in parallel
  /// (zero for an empty batch).
  Time apply_column(std::size_t j,
                    std::span<const PendingUpdate* const> events);

  /// The STDP configuration this learner draws from (seed included).
  [[nodiscard]] const StdpConfig& config() const { return rule_.config(); }

  [[nodiscard]] const LearningStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  arch::Tile* tile_;
  StochasticStdp rule_;
  LearningStats stats_;
};

}  // namespace esam::learning
