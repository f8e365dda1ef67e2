#include "esam/learning/online_trainer.hpp"

#include <stdexcept>

#include "esam/util/rng.hpp"

namespace esam::learning {

std::uint64_t derive_learner_seed(std::uint64_t base_seed,
                                  std::size_t tile_index) {
  return base_seed ^ util::splitmix64_mix(tile_index);
}

OnlineTrainer::OnlineTrainer(std::vector<arch::Tile>& tiles, TrainerConfig cfg)
    : tiles_(&tiles), cfg_(cfg) {
  if (tiles.empty()) {
    throw std::invalid_argument("OnlineTrainer: no tiles");
  }
  if (!tiles.back().config().is_output_layer) {
    throw std::invalid_argument(
        "OnlineTrainer: last tile must be an output layer (Vmem readout)");
  }
  const StdpConfig hidden_base = cfg.hidden_stdp.value_or(cfg.stdp);
  rules_.reserve(tiles.size());
  for (std::size_t t = 0; t + 1 < tiles.size(); ++t) {
    switch (cfg.hidden_rule) {
      case HiddenRule::kNone:
        rules_.push_back(nullptr);
        break;
      case HiddenRule::kWtaStdp: {
        StdpConfig per_tile = hidden_base;
        per_tile.seed = derive_learner_seed(hidden_base.seed, t);
        rules_.push_back(
            std::make_unique<WtaStdpRule>(tiles[t], per_tile, cfg.wta_k));
        break;
      }
    }
  }
  StdpConfig out_cfg = cfg.stdp;
  out_cfg.seed = derive_learner_seed(cfg.stdp.seed, tiles.size() - 1);
  rules_.push_back(std::make_unique<SupervisedTeacherRule>(
      tiles.back(), out_cfg,
      TeacherRuleConfig{.punish_wrong_winner = cfg.punish_wrong_winner,
                        .update_on_correct = cfg.update_on_correct}));
}

void OnlineTrainer::stage_hidden(std::size_t t, const util::BitVec& pre_spikes,
                                 std::span<const std::size_t> winners) {
  auto& r = rules_.at(t);
  if (r != nullptr) r->stage_rewards(pre_spikes, winners);
}

void OnlineTrainer::stage_label(const util::BitVec& pre_spikes,
                                std::size_t winner, std::size_t label) {
  rules_.back()->on_label(pre_spikes, winner, label);
}

void OnlineTrainer::commit_pending(
    std::vector<std::vector<ColumnRmw>>* written) {
  if (written != nullptr) written->resize(rules_.size());
  for (std::size_t t = 0; t < rules_.size(); ++t) {
    std::vector<ColumnRmw>* cols =
        written != nullptr ? &(*written)[t] : nullptr;
    if (cols != nullptr) cols->clear();
    if (rules_[t] != nullptr) rules_[t]->commit(cols);
  }
}

std::size_t OnlineTrainer::pending_count() const {
  std::size_t total = 0;
  for (const auto& r : rules_) {
    if (r != nullptr) total += r->pending_count();
  }
  return total;
}

LearningStats OnlineTrainer::stats() const {
  LearningStats total;
  for (const auto& r : rules_) {
    if (r == nullptr) continue;
    total.column_updates += r->stats().column_updates;
    total.column_rmws += r->stats().column_rmws;
    total.time += r->stats().time;
    total.energy += r->stats().energy;
  }
  return total;
}

LearningStats OnlineTrainer::tile_stats(std::size_t t) const {
  const auto& r = rules_.at(t);
  return r != nullptr ? r->stats() : LearningStats{};
}

}  // namespace esam::learning
