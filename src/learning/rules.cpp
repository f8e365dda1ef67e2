#include "esam/learning/rules.hpp"

#include <algorithm>
#include <stdexcept>

namespace esam::learning {

std::string_view to_string(HiddenRule rule) {
  switch (rule) {
    case HiddenRule::kNone:
      return "none";
    case HiddenRule::kWtaStdp:
      return "wta-stdp";
  }
  return "?";
}

std::optional<HiddenRule> parse_hidden_rule(std::string_view name) {
  if (name == "none") return HiddenRule::kNone;
  if (name == "wta-stdp") return HiddenRule::kWtaStdp;
  return std::nullopt;
}

LearningRule::LearningRule(arch::Tile& tile, StdpConfig stdp)
    : tile_(&tile), learner_(tile, stdp) {}

void LearningRule::on_label(const util::BitVec& /*pre_spikes*/,
                            std::size_t /*winner*/, std::size_t /*label*/) {}

void LearningRule::resolve_forward(const arch::Tile& /*observed*/,
                                   std::vector<std::size_t>& out) const {
  out.clear();
}

void LearningRule::stage_rewards(const util::BitVec& pre_spikes,
                                 std::span<const std::size_t> columns) {
  for (const std::size_t j : columns) {
    stage(j, pre_spikes, /*causal=*/true);
  }
}

void LearningRule::stage(std::size_t column, const util::BitVec& pre_spikes,
                         bool causal) {
  if (pending_count_ == pending_.size()) {
    pending_.emplace_back();
  }
  // Slot reuse: BitVec assignment into a retained slot keeps its word
  // storage, so steady-state staging performs no allocation.
  PendingUpdate& e = pending_[pending_count_++];
  e.pre = pre_spikes;
  e.column = column;
  e.causal = causal;
}

void LearningRule::commit(std::vector<ColumnRmw>* written) {
  if (written != nullptr) written->clear();
  if (pending_count_ == 0) return;
  // Distinct columns in first-staged order, each column's events gathered in
  // staged order. Pending windows are small (a few events per sample), so
  // the quadratic first-occurrence scan beats hashing here.
  for (std::size_t i = 0; i < pending_count_; ++i) {
    const std::size_t col = pending_[i].column;
    bool seen = false;
    for (std::size_t p = 0; p < i; ++p) {
      if (pending_[p].column == col) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    batch_scratch_.clear();
    for (std::size_t p = i; p < pending_count_; ++p) {
      if (pending_[p].column == col) batch_scratch_.push_back(&pending_[p]);
    }
    const Time time = learner_.apply_column(col, batch_scratch_);
    if (written != nullptr) written->push_back({col, time});
  }
  pending_count_ = 0;
}

SupervisedTeacherRule::SupervisedTeacherRule(arch::Tile& tile, StdpConfig stdp,
                                             TeacherRuleConfig cfg)
    : LearningRule(tile, stdp), cfg_(cfg) {
  if (!tile.config().is_output_layer) {
    throw std::invalid_argument(
        "SupervisedTeacherRule: tile must be an output layer (Vmem readout)");
  }
}

void SupervisedTeacherRule::on_label(const util::BitVec& pre_spikes,
                                     std::size_t winner, std::size_t label) {
  if (label >= tile_->config().outputs) {
    throw std::out_of_range("SupervisedTeacherRule: label out of range");
  }
  if (winner == label && !cfg_.update_on_correct) return;
  stage(label, pre_spikes, /*causal=*/true);
  if (cfg_.punish_wrong_winner && winner != label) {
    stage(winner, pre_spikes, /*causal=*/false);
  }
}

WtaStdpRule::WtaStdpRule(arch::Tile& tile, StdpConfig stdp, std::size_t k)
    : LearningRule(tile, stdp), k_(k) {
  if (k_ == 0) {
    throw std::invalid_argument("WtaStdpRule: k must be >= 1");
  }
  if (tile.config().is_output_layer) {
    throw std::invalid_argument(
        "WtaStdpRule: output-layer tiles run the supervised teacher");
  }
}

void WtaStdpRule::resolve_forward(const arch::Tile& observed,
                                  std::vector<std::size_t>& out) const {
  // The k fired columns with the largest fire-time Vmem margin over
  // threshold, returned in ascending column order.
  out.clear();
  const util::BitVec& post_spikes = observed.last_output();
  if (post_spikes.none()) return;  // no post-synaptic learning event

  post_spikes.for_each_set([&out](std::size_t j) { out.push_back(j); });

  if (out.size() > k_) {
    // Winner ranking: fire-time membrane margin over the column's threshold
    // (how decisively the neuron fired), ties broken by column index so the
    // selection is fully deterministic.
    const std::vector<std::int32_t>& vmem = observed.fire_vmem();
    auto margin = [&](std::size_t j) {
      return vmem[j] - observed.vth(j);
    };
    std::partial_sort(out.begin(),
                      out.begin() + static_cast<std::ptrdiff_t>(k_), out.end(),
                      [&](std::size_t a, std::size_t b) {
                        const auto ma = margin(a);
                        const auto mb = margin(b);
                        return ma != mb ? ma > mb : a < b;
                      });
    out.resize(k_);
    // Keep the update order independent of the ranking permutation: the
    // per-column Bernoulli draws come from one sequential stream, so a
    // stable column order makes trajectories comparable across k.
    std::sort(out.begin(), out.end());
  }
}

}  // namespace esam::learning
