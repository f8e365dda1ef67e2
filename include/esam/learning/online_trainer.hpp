// System-level online-training engine (paper secs. 2.2, 4.4.1).
//
// A thin conductor over per-tile learning rules, driven by the one
// training loop, arch::SystemSimulator::train_pass: each sample is walked
// through the cascaded tiles (arch::walk_cascade), each plastic hidden
// tile's winners are resolved from the pass (LearningRule::resolve_forward)
// and staged (stage_hidden), the winner is read from the output tile's
// membrane potentials (winner-take-all), and the output tile's supervised
// teacher turns (winner, label) into reward/punish column updates
// (stage_label) -- each update one column read-modify-write through the
// transposed RW port of that tile's macros, applied by commit_pending().
//
// k-step delayed updates: train_pass stages k samples (forwards run on
// per-worker tile clones, observations replayed in sample order) and
// commits once per window; k = 1 is the immediate-update mode.
//
// Determinism contract: the trainer owns one LearningRule per plastic tile,
// seeded with derive_learner_seed(base_seed, tile_index) so the per-tile
// Bernoulli streams are decorrelated (a shared default seed would make every
// tile draw the *same* update pattern) yet fully reproducible: the same base
// seed, tiles, rule selection and staged sample order always produce
// bit-identical weights.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "esam/arch/tile.hpp"
#include "esam/learning/online_learner.hpp"
#include "esam/learning/rules.hpp"

namespace esam::learning {

/// Derives the per-tile STDP seed from a base seed: splitmix64 of the tile
/// index XORed into the base. Stateless and documented so tests (and future
/// checkpointing) can reproduce a learner's stream in isolation.
[[nodiscard]] std::uint64_t derive_learner_seed(std::uint64_t base_seed,
                                                std::size_t tile_index);

/// Pipeline-wide learning configuration. `stdp.seed` is the *base* seed;
/// per-tile rule seeds are derived from it (see derive_learner_seed).
struct TrainerConfig {
  StdpConfig stdp{};
  /// Also depress the wrong winner's column on a miss (the supervised
  /// punish signal of the examples); reward-only when false.
  bool punish_wrong_winner = true;
  /// Error-driven by default: a correctly classified sample leaves the
  /// weights alone, so updates taper off as the network adapts and an
  /// already-good deployment is not churned. Set true to also reinforce
  /// correct predictions (pure reward/punish STDP).
  bool update_on_correct = false;
  /// Rule driving the hidden tiles; the output tile always runs the
  /// supervised teacher. kNone freezes the hidden layers.
  HiddenRule hidden_rule = HiddenRule::kNone;
  /// Winning columns per inference for the WTA-STDP hidden rule.
  std::size_t wta_k = 1;
  /// Optional separate STDP rates for the hidden rules (unsupervised
  /// updates usually want gentler rates than the teacher); defaults to
  /// `stdp` when unset. Per-tile seeds are still derived from its seed.
  std::optional<StdpConfig> hidden_stdp{};
};

class OnlineTrainer {
 public:
  /// Attaches to a tile pipeline (tiles must outlive the trainer; the last
  /// tile must be an output layer exposing Vmem).
  OnlineTrainer(std::vector<arch::Tile>& tiles, TrainerConfig cfg);

  /// True when this trainer's rules write into `tiles` (the pipeline it
  /// was constructed over).
  [[nodiscard]] bool bound_to(const std::vector<arch::Tile>& tiles) const {
    return tiles_ == &tiles;
  }

  /// Stages reward updates for hidden tile `t` (winners resolved by
  /// rule(t)->resolve_forward on the tile that ran the pass, canonical or a
  /// worker clone). No-op for frozen tiles.
  void stage_hidden(std::size_t t, const util::BitVec& pre_spikes,
                    std::span<const std::size_t> winners);

  /// Stages the output teacher's (winner, label) decision. `winner` is the
  /// winner-take-all class of the output tile's offset-corrected Vmem (the
  /// readout the inference engine reports, so teacher and eval always agree
  /// on what "wrong" means).
  void stage_label(const util::BitVec& pre_spikes, std::size_t winner,
                   std::size_t label);

  /// Commits every rule's staged updates to the canonical tiles, in
  /// ascending tile order (deterministic: per-tile Bernoulli streams are a
  /// pure function of each tile's staged sequence). When `written` is
  /// non-null it is resized to tile_count() and filled with the distinct
  /// columns each tile wrote (commit order) and their RMW port times -- the
  /// clone-resync lists and the commit-drain input.
  void commit_pending(std::vector<std::vector<ColumnRmw>>* written = nullptr);

  /// Total staged events awaiting commit_pending(), over all rules.
  [[nodiscard]] std::size_t pending_count() const;

  [[nodiscard]] const TrainerConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t tile_count() const { return rules_.size(); }
  /// True when tile `t` has a rule staging updates into it.
  [[nodiscard]] bool tile_plastic(std::size_t t) const {
    return rules_.at(t) != nullptr;
  }
  /// Rule driving tile `t`; nullptr when the tile is not plastic (hidden
  /// tile with HiddenRule::kNone).
  [[nodiscard]] const LearningRule* rule(std::size_t t) const {
    return rules_.at(t).get();
  }

  /// Aggregate column-update stats over every per-tile rule.
  [[nodiscard]] LearningStats stats() const;
  /// Column-update stats of tile `t` (all-zero for non-plastic tiles).
  [[nodiscard]] LearningStats tile_stats(std::size_t t) const;

 private:
  const std::vector<arch::Tile>* tiles_;  ///< only for bound_to()
  TrainerConfig cfg_;
  std::vector<std::unique_ptr<LearningRule>> rules_;
};

}  // namespace esam::learning
