// System-level online-training engine (paper secs. 2.2, 4.4.1).
//
// A thin conductor over per-tile learning rules: one sample is walked
// through the cascaded tiles (arch::walk_cascade), each plastic hidden
// tile's rule observes its pre/post spike pair (on_forward), the winner is
// read from the output tile's membrane potentials (winner-take-all), and the
// output tile's supervised teacher turns (winner, label) into reward/punish
// column updates (on_label) -- each update one column read-modify-write
// through the transposed RW port of that tile's macros.
//
// k-step delayed updates: the rules stage their observations (see
// LearningRule::commit), so the trainer splits a training step into
// stage_sample() and commit_pending(). train_sample() = stage + commit, the
// immediate-update reference; the batched system engine stages k samples
// (observations resolved on per-worker tile clones, replayed in sample
// order) and commits once per window.
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

  /// One supervised step: forwards `input` through the tiles
  /// (arch::walk_cascade), reads the winner-take-all class from the output
  /// tile's offset-corrected Vmem (the readout the inference engine reports,
  /// so teacher and eval always agree on what "wrong" means), lets every
  /// hidden rule observe its tile's pre/post spikes, then drives the output
  /// teacher with (winner, label) and commits the staged updates immediately
  /// (stage_sample + commit_pending). Returns the pre-update winner, so
  /// callers can fold it into an online-accuracy estimate.
  std::size_t train_sample(const util::BitVec& input, std::size_t label);

  /// train_sample without the commit: forwards `input` through the canonical
  /// tiles and stages every rule's observation, leaving the SRAM untouched.
  /// Pair with commit_pending() every k samples for delayed updates.
  std::size_t stage_sample(const util::BitVec& input, std::size_t label);

  /// Observation replay for the batched engine: stages reward updates for
  /// hidden tile `t` (winners resolved elsewhere, e.g. via
  /// rule(t)->resolve_forward on a worker clone). No-op for frozen tiles.
  void stage_hidden(std::size_t t, const util::BitVec& pre_spikes,
                    std::span<const std::size_t> winners);

  /// Stages the output teacher's (winner, label) decision for a sample
  /// whose forward ran elsewhere.
  void stage_label(const util::BitVec& pre_spikes, std::size_t winner,
                   std::size_t label);

  /// Commits every rule's staged updates to the canonical tiles, in
  /// ascending tile order (deterministic: per-tile Bernoulli streams are a
  /// pure function of each tile's staged sequence). When `updated` is
  /// non-null it is resized to tile_count() and filled with the distinct
  /// columns each tile wrote (commit order) -- the clone-resync lists.
  void commit_pending(std::vector<std::vector<std::size_t>>* updated = nullptr);

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
  std::vector<arch::Tile>* tiles_;
  TrainerConfig cfg_;
  std::vector<std::unique_ptr<LearningRule>> rules_;
  util::BitVec handoff_;  ///< inter-tile spike buffer of stage_sample
};

}  // namespace esam::learning
