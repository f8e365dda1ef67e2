// Per-tile learning-rule engine (paper secs. 2.2, 4.4.1).
//
// A LearningRule attaches to one tile and turns that tile's forward-pass
// observations into column updates through its transposed RW port. Two
// concrete rules cover the pipeline:
//
//  * SupervisedTeacherRule -- the output tile's reward/punish WTA teacher:
//    reward the labelled neuron's column with the spikes that reached the
//    tile, punish a wrong winner.
//  * WtaStdpRule -- unsupervised hidden-layer plasticity: of the spikes a
//    hidden tile fired, the k most strongly driven columns (largest fire-time
//    Vmem margin over threshold, captured by Tile::fire_vmem before the
//    firing reset) win and receive the stochastic-STDP update with the
//    tile's pre-synaptic spike vector. Layer-local, label-free, and each
//    update is the same column read-modify-write the teacher pays -- the
//    in-macro learning cost story extends to every cascaded tile.
//
// Accumulate/commit protocol (k-step delayed updates): a hidden tile is
// observed in two steps -- resolve_forward() picks the winning columns from
// any tile that ran the pass (the canonical one or a worker clone), and
// stage_rewards() stages them -- and the output tile's on_label() stages the
// teacher's decision. Nothing touches the SRAM until commit() applies the
// staged events through the learner in deterministic order (first-staged
// column first, each column's events folded into one read-modify-write in
// staged order). Committing after every observed sample reproduces the
// immediate-update behaviour bit for bit; committing every k samples is the
// delayed-update training mode, where repeated events on one column
// coalesce into a single RMW (see OnlineLearner::apply_column).
//
// Rules own one seeded OnlineLearner each; OnlineTrainer derives the
// per-tile seeds so multi-tile update streams stay decorrelated yet
// reproducible (see derive_learner_seed).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "esam/arch/tile.hpp"
#include "esam/learning/online_learner.hpp"

namespace esam::learning {

/// Which local rule drives the hidden tiles (the output tile always runs
/// the supervised teacher).
enum class HiddenRule : std::uint8_t {
  kNone,     ///< hidden tiles stay frozen (the pre-engine behaviour)
  kWtaStdp,  ///< winner-take-all stochastic STDP on each tile's fired spikes
};

[[nodiscard]] std::string_view to_string(HiddenRule rule);
/// Parses a CLI rule name ("none" | "wta-stdp"); nullopt on garbage.
[[nodiscard]] std::optional<HiddenRule> parse_hidden_rule(
    std::string_view name);

/// Interface of one per-tile plasticity rule. The tile must outlive the
/// rule. Hooks observe the tile's fixed-storage per-inference state
/// (last_input / last_output / fire_vmem) and stage into slot-reused
/// pending storage, so driving a rule allocates nothing per sample once the
/// pending buffer has grown to the window size.
class LearningRule {
 public:
  LearningRule(arch::Tile& tile, StdpConfig stdp);
  virtual ~LearningRule() = default;
  LearningRule(const LearningRule&) = delete;
  LearningRule& operator=(const LearningRule&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once per supervised sample on the output tile's rule, with the
  /// spikes that reached the tile, the WTA winner and the teacher label.
  /// Stages updates; nothing reaches the SRAM until commit().
  virtual void on_label(const util::BitVec& pre_spikes, std::size_t winner,
                        std::size_t label);

  /// Winner resolution of a forward pass: fills `out` with the columns the
  /// rule would reward for `observed`'s most recent forward pass. Const and
  /// touching only `observed` + `out`, so the training engine can resolve
  /// observations on per-worker tile clones concurrently and replay them
  /// into the rule on retirement via stage_rewards(). The base rule
  /// observes nothing (clears `out`).
  virtual void resolve_forward(const arch::Tile& observed,
                               std::vector<std::size_t>& out) const;

  /// Stages one causal (reward) update per column, in the given order (the
  /// columns resolve_forward() picked).
  void stage_rewards(const util::BitVec& pre_spikes,
                     std::span<const std::size_t> columns);

  /// Applies every staged update to the SRAM: distinct columns in
  /// first-staged order, each column's events coalesced into one
  /// read-modify-write (events folded in staged order, so the per-rule
  /// Bernoulli stream is a pure function of the staged sequence). When
  /// `written` is non-null it is filled with one entry per distinct column
  /// written (commit order) and that RMW's port time -- the clone-resync
  /// list and commit-drain input of the training engine.
  void commit(std::vector<ColumnRmw>* written = nullptr);

  /// Staged events awaiting commit().
  [[nodiscard]] std::size_t pending_count() const { return pending_count_; }

  [[nodiscard]] const arch::Tile& tile() const { return *tile_; }
  /// The seeded STDP configuration this rule draws from.
  [[nodiscard]] const StdpConfig& config() const { return learner_.config(); }
  [[nodiscard]] const LearningStats& stats() const { return learner_.stats(); }

 protected:
  /// Appends one staged update (slot-reused storage: BitVec capacity is
  /// retained across commit cycles, so steady-state staging is heap-free).
  void stage(std::size_t column, const util::BitVec& pre_spikes, bool causal);

  arch::Tile* tile_;
  OnlineLearner learner_;

 private:
  std::vector<PendingUpdate> pending_;
  std::size_t pending_count_ = 0;  ///< live prefix of pending_
  std::vector<const PendingUpdate*> batch_scratch_;  ///< commit grouping
};

/// Supervised output-layer teacher configuration (see TrainerConfig for the
/// field semantics; extracted so the rule is usable stand-alone).
struct TeacherRuleConfig {
  bool punish_wrong_winner = true;
  bool update_on_correct = false;
};

class SupervisedTeacherRule final : public LearningRule {
 public:
  SupervisedTeacherRule(arch::Tile& tile, StdpConfig stdp,
                        TeacherRuleConfig cfg);
  [[nodiscard]] std::string_view name() const override { return "teacher"; }
  void on_label(const util::BitVec& pre_spikes, std::size_t winner,
                std::size_t label) override;

 private:
  TeacherRuleConfig cfg_;
};

class WtaStdpRule final : public LearningRule {
 public:
  /// `k` = winning columns per inference (>= 1).
  WtaStdpRule(arch::Tile& tile, StdpConfig stdp, std::size_t k);
  [[nodiscard]] std::string_view name() const override { return "wta-stdp"; }
  void resolve_forward(const arch::Tile& observed,
                       std::vector<std::size_t>& out) const override;

  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  std::size_t k_;
};

}  // namespace esam::learning
