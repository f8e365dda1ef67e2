// Online learning on ESAM at system scale: adapting 1-bit synapses in the
// field through the transposable port (paper secs. 2.2, 3.2, 4.4.1).
//
// Scenario: a multi-tile SNN classifier (256 inputs -> 64 hidden -> 10
// output neurons) is deployed with a fixed random hidden layer and learns
// its output layer *online*, with the supervised stochastic-STDP teacher of
// SystemSimulator::run_online -- every update one column read-modify-write
// through the transposed RW port of the output tile. Then the input wiring
// drifts (data::DriftGenerator permutes half the input positions), accuracy
// collapses, and the *whole pipeline* recovers it: the recovery phase turns
// on the unsupervised WTA-STDP hidden rule, so both tiles adapt -- the
// per-tile update counts show hidden plasticity paying the same in-macro
// column-RMW cost as the teacher. The demo prints the accuracy-over-time
// curves, the per-tile update split, the metered train-phase cost and the
// hardware cost of the updates, against the 6T baseline that must sweep
// 2 x 128 rows per update.
//
//   ./online_learning [--smoke]     (--smoke: tiny workload for CI)
#include <cstdio>
#include <cstring>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/data/drift.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

using namespace esam;

namespace {

constexpr std::size_t kInputs = 256;
constexpr std::size_t kHidden = 64;
constexpr std::size_t kClasses = 10;

/// Ten random-but-fixed prototype patterns, ~25 % active inputs each.
std::vector<util::BitVec> make_prototypes(util::Rng& rng) {
  std::vector<util::BitVec> protos;
  for (std::size_t c = 0; c < kClasses; ++c) {
    util::BitVec p(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) {
      if (rng.bernoulli(0.25)) p.set(i);
    }
    protos.push_back(std::move(p));
  }
  return protos;
}

/// Labelled noisy samples of the prototypes (bits flip with probability 4 %).
void make_samples(const std::vector<util::BitVec>& protos, std::size_t count,
                  util::Rng& rng, std::vector<util::BitVec>& inputs,
                  std::vector<std::uint8_t>& labels) {
  inputs.clear();
  labels.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_index(kClasses));
    util::BitVec s = protos[cls];
    for (std::size_t k = 0; k < s.size(); ++k) {
      if (rng.bernoulli(0.04)) s.set(k, !s.test(k));
    }
    inputs.push_back(std::move(s));
    labels.push_back(static_cast<std::uint8_t>(cls));
  }
}

/// The deployed network: a fixed random hidden layer (random projection)
/// and an all-zero output layer that online learning has to fill in.
nn::SnnNetwork make_network(util::Rng& rng) {
  nn::SnnLayer hidden;
  hidden.weight_rows.assign(kInputs, util::BitVec(kHidden));
  for (auto& row : hidden.weight_rows) {
    for (std::size_t j = 0; j < kHidden; ++j) {
      if (rng.bernoulli(0.5)) row.set(j);
    }
  }
  hidden.thresholds.assign(kHidden, 4);
  hidden.readout_offsets.assign(kHidden, 0.0f);

  nn::SnnLayer output;
  output.weight_rows.assign(kHidden, util::BitVec(kClasses));
  output.thresholds.assign(kClasses, 0);
  output.readout_offsets.assign(kClasses, 0.0f);
  return nn::SnnNetwork::from_layers({std::move(hidden), std::move(output)});
}

void print_curve(const char* phase, const arch::OnlineRunResult& r) {
  std::printf("%s\n  accuracy before training : %5.1f%%\n", phase,
              100.0 * r.initial_accuracy);
  for (std::size_t e = 0; e < r.epochs.size(); ++e) {
    std::printf("  after epoch %zu            : %5.1f%%  (online %5.1f%%)\n",
                e + 1, 100.0 * r.epochs[e].eval_accuracy,
                100.0 * r.epochs[e].online_accuracy);
  }
  for (std::size_t t = 0; t < r.tile_learning.size(); ++t) {
    std::printf("  tile %zu (%s) updates   : %llu\n", t,
                t + 1 == r.tile_learning.size() ? "output" : "hidden",
                static_cast<unsigned long long>(
                    r.tile_learning[t].column_updates));
  }
  std::printf("  train-phase forwards     : %s metered\n",
              util::to_string(r.train_ledger.total_energy()).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t n_samples = smoke ? 80 : 400;
  const std::size_t epochs = smoke ? 1 : 3;

  util::Rng rng(2026);
  const std::vector<util::BitVec> protos = make_prototypes(rng);
  arch::SystemSimulator sim(tech::imec3nm(), make_network(rng), {});

  std::vector<util::BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(protos, n_samples, rng, inputs, labels);

  arch::OnlineTrainConfig cfg;
  cfg.epochs = epochs;
  // From-scratch operating point: strong rates, and keep reinforcing
  // correct predictions (empty columns need the margin; a *fine-tuning*
  // scenario would use gentle error-driven updates instead, see
  // learning::fine_tune_stdp).
  cfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12, .seed = 99};
  cfg.trainer.update_on_correct = true;
  cfg.threads = 0;

  std::printf("ESAM system-level online learning: %zu -> %zu -> %zu, "
              "%zu samples x %zu epochs\n\n",
              kInputs, kHidden, kClasses, n_samples, epochs);

  // Phase 1: learn the deployment task from scratch.
  const arch::OnlineRunResult deploy = sim.run_online(inputs, labels, cfg);
  print_curve("learning the task online (output layer starts empty):",
              deploy);

  // Phase 2: the input wiring drifts; the whole pipeline recovers -- the
  // hidden tile runs unsupervised WTA-STDP alongside the output teacher, so
  // the drifted input statistics are re-absorbed layer-locally (gentler
  // rates than the teacher: unsupervised updates churn structure faster).
  cfg.trainer.hidden_rule = learning::HiddenRule::kWtaStdp;
  cfg.trainer.wta_k = 2;
  cfg.trainer.hidden_stdp = learning::StdpConfig{
      .p_potentiation = 0.1, .p_depression = 0.025, .seed = 99};
  const data::DriftGenerator drift(kInputs, 0.5, 7);
  const std::vector<util::BitVec> drifted = drift.apply_all(inputs);
  const arch::OnlineRunResult recover = sim.run_online(drifted, labels, cfg);
  std::printf("\n");
  print_curve(
      "after input drift (half the positions permuted; hidden wta-stdp on):",
      recover);

  // Hardware cost of the adaptation, from the final eval's ledger.
  const auto& st = recover.learning;
  const double per_update_ns =
      util::in_nanoseconds(st.time) / static_cast<double>(st.column_updates);
  std::printf("\nlearning cost on the 1RW+4R transposable arrays:\n");
  std::printf("  column updates : %llu\n",
              static_cast<unsigned long long>(st.column_updates));
  std::printf("  time           : %s (%.1f ns per update)\n",
              util::to_string(st.time).c_str(), per_update_ns);
  std::printf("  energy         : %s (%.1f%% of the adapt-and-infer total)\n",
              util::to_string(st.energy).c_str(),
              100.0 * util::in_picojoules(st.energy) /
                  util::in_picojoules(
                      recover.final_eval.ledger.total_energy()));
  std::printf("  energy / inf   : %s including learning\n",
              util::to_string(recover.final_eval.energy_per_inference).c_str());
  std::printf("  6T baseline would need %.1f ns per update -> %.1fx slower\n",
              tech::calib::kBaselineColumnUpdateNs,
              tech::calib::kBaselineColumnUpdateNs / per_update_ns);
  return 0;
}
