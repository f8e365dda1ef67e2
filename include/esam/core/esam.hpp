// Top-level ESAM API: ties the trained network, the converted Binary-SNN and
// the hardware simulator together behind one facade.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::ModelConfig mc;                       // 768:256:256:256:10, MNIST
//   core::TrainedModel model = core::TrainedModel::create(mc);
//   arch::SystemConfig hw;                      // 1RW+4R @ 500 mV
//   core::EsamSystem system(model, hw);
//   core::SystemReport r = system.evaluate(2000);
//   r.print();
//
// TrainedModel::create trains the BNN from scratch (or loads a cached model,
// then builds only the test split) and converts it; EsamSystem instantiates
// the cycle-accurate hardware for a given cell/voltage configuration --
// Fig. 8 builds five systems from the same TrainedModel.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/data/dataset.hpp"
#include "esam/data/drift.hpp"
#include "esam/io/checkpoint.hpp"
#include "esam/nn/bnn.hpp"
#include "esam/nn/convert.hpp"
#include "esam/tech/technology.hpp"

namespace esam::core {

/// Network + dataset + training configuration.
struct ModelConfig {
  /// Paper network: 768:256:256:256:10 (sec. 4.4.2).
  std::vector<std::size_t> shape{768, 256, 256, 256, 10};
  std::size_t n_train = 12000;
  std::size_t n_test = 2000;
  std::uint64_t data_seed = 7;
  /// 18 epochs reach ~98 % test accuracy on the synthetic digits,
  /// bracketing the paper's 97.64 % on real MNIST.
  nn::TrainConfig train{.epochs = 18};
  /// When non-empty, a trained BNN is cached here and reused on later runs
  /// (the cache is validated against the shape).
  std::string cache_path = "esam_bnn_cache.bin";
  /// Print training progress.
  bool verbose = false;
};

/// A trained BNN, its exact Binary-SNN conversion, and the dataset used.
struct TrainedModel {
  nn::BnnNetwork bnn;
  nn::SnnNetwork snn;
  /// `test` is the evaluation stream. `train` is built only when create()
  /// trains; after a cache hit it is empty.
  data::TrainTestSplit data;
  /// Set only when create() trained the BNN (empty after a cache hit).
  std::optional<double> bnn_train_accuracy;
  double bnn_test_accuracy = 0.0;

  /// Loads the BNN from cfg.cache_path when it holds one of cfg.shape, and
  /// then builds only the test split, the same one a cold create builds.
  /// Otherwise builds both splits, trains, and writes the cache (when a path
  /// is set). Either way, converts the BNN to the Binary-SNN.
  static TrainedModel create(const ModelConfig& cfg);
};

/// System-level evaluation results (the Fig. 8 / Table 3 quantities).
struct SystemReport {
  std::string cell;
  std::string dataset_source;
  double clock_mhz = 0.0;
  double throughput_minf_per_s = 0.0;
  double energy_per_inf_pj = 0.0;
  double power_mw = 0.0;
  double area_um2 = 0.0;
  double accuracy = 0.0;
  double avg_cycles_per_inf = 0.0;
  std::size_t neurons = 0;
  std::size_t synapses = 0;
  std::size_t inferences = 0;
  /// Simulator execution stats (host-side, not modelled hardware).
  double sim_wall_s = 0.0;
  double sim_inf_per_s = 0.0;
  std::size_t sim_threads = 1;

  void print() const;
};

/// Online-learning scenario configuration: drift the test inputs, then adapt
/// the deployed weights in the field with the supervised STDP teacher.
struct OnlineOptions {
  std::size_t max_inferences = 500;  ///< test samples to use (0 = all)
  std::size_t epochs = 2;            ///< train/eval rounds after the drift
  double drift_fraction = 0.25;      ///< fraction of input positions permuted
  std::uint64_t drift_seed = 2026;
  /// Teacher rates: the fine-tuning operating point, learning::fine_tune_stdp.
  /// `trainer.hidden_rule` / `trainer.wta_k` select the hidden-tile rule
  /// (hidden plasticity is off by default; the hidden rules reuse these
  /// gentle rates unless `trainer.hidden_stdp` overrides them).
  learning::TrainerConfig trainer{.stdp = learning::fine_tune_stdp(99)};
  /// Fraction of the sample window held out for evaluation (trained on the
  /// rest), so the reported curve measures generalization. 0 = train and
  /// evaluate on the same stream (the rolling field scenario).
  double holdout_fraction = 0.0;
  /// k-step delayed updates: commit staged column updates every k training
  /// samples (1 = immediate updates; see
  /// arch::OnlineTrainConfig::update_interval).
  std::size_t update_interval = 1;
  /// Host worker threads of the eval phases and the training windows.
  arch::RunConfig run{};
};

/// Results of the system-level online-learning scenario (sec. 4.4.1 at
/// Fig. 8 scale: accuracy recovery plus the hardware cost of the updates).
struct OnlineReport {
  std::string cell;
  std::string dataset_source;
  std::size_t inferences = 0;
  std::size_t epochs = 0;
  double drift_fraction = 0.0;
  /// Hidden-tile rule name ("none" when only the output teacher runs).
  std::string hidden_rule;
  /// Train / eval split sizes (equal to `inferences` each when no holdout).
  std::size_t train_samples = 0;
  std::size_t eval_samples = 0;
  double accuracy_clean = 0.0;    ///< deployed weights on clean inputs
  double accuracy_drifted = 0.0;  ///< same weights right after the drift
  std::vector<double> epoch_eval_accuracy;
  std::vector<double> epoch_online_accuracy;
  /// Commit window size the run used (1 = immediate updates).
  std::size_t update_interval = 1;
  std::uint64_t column_updates = 0;
  /// Physical column read-modify-writes (== column_updates at
  /// update_interval 1; smaller when windows coalesce repeated events).
  std::uint64_t column_rmws = 0;
  /// Per-tile column updates (hidden plasticity shows up as its own rows).
  std::vector<std::uint64_t> tile_column_updates;
  double learning_time_us = 0.0;
  double learning_energy_pj = 0.0;
  /// Metered serial training-phase forward passes (inference cost of the
  /// adapt phase, beyond the column updates themselves).
  std::uint64_t train_cycles = 0;
  double train_energy_pj = 0.0;
  /// Weight bits that differ from the deployed baseline after adaptation
  /// (Tile::export_layer read-back vs the loaded model).
  std::uint64_t weight_bits_changed = 0;
  /// Final eval energy/inference including the learning component.
  double energy_per_inf_pj = 0.0;
  /// Learning share of the final total energy, in [0, 1].
  double learning_energy_share = 0.0;
  std::size_t sim_threads = 1;

  void print() const;
};

/// The symmetric deployment facade: evaluate, learn and serve all start
/// from the same deployed-weights abstraction. A system is constructed
/// either from a live TrainedModel (training flow) or from an io::Checkpoint
/// (redeployment flow); both paths end in identical hardware state, and
/// make_checkpoint()/deploy() close the loop so in-field adapted weights can
/// be persisted and shipped to fresh hardware.
class EsamSystem {
 public:
  /// Builds the hardware for `hw` on the nominal 3nm node and loads the
  /// model's weights; the model's test split becomes the evaluation stream.
  /// The model must outlive the system.
  EsamSystem(const TrainedModel& model, arch::SystemConfig hw);

  /// Same, on an explicit technology node (e.g. tech::imec3nm_low_power();
  /// the node must outlive the system).
  EsamSystem(const TrainedModel& model, arch::SystemConfig hw,
             const tech::TechnologyParams& node);

  /// Deploys a bare trained network -- the train-once/deploy-many path
  /// (fleet::DeviceFactory stamps N dies from one TrainedModel this way).
  /// Starts with no evaluation data; call attach_test_data() before
  /// evaluate()/learn_online(). `snn` and `node` must outlive the system.
  EsamSystem(const nn::SnnNetwork& snn, arch::SystemConfig hw,
             const tech::TechnologyParams& node);

  /// Deploys a checkpoint into freshly built hardware -- no TrainedModel
  /// needed. The system starts with no evaluation data; call
  /// attach_test_data() before evaluate()/learn_online().
  EsamSystem(const io::Checkpoint& ckpt, arch::SystemConfig hw);
  EsamSystem(const io::Checkpoint& ckpt, arch::SystemConfig hw,
             const tech::TechnologyParams& node);

  [[nodiscard]] arch::SystemSimulator& simulator() { return sim_; }
  [[nodiscard]] const arch::SystemSimulator& simulator() const { return sim_; }

  /// Loads a checkpoint's weights into the existing hardware (shape must
  /// match; throws std::invalid_argument otherwise, leaving the current
  /// weights intact) and makes it the deployed baseline that learn_online
  /// diffs against.
  void deploy(const io::Checkpoint& ckpt);

  /// Snapshots the live SRAM weights (after any in-field adaptation) into a
  /// checkpoint ready for save(). Lineage: meta.parent_crc is stamped with
  /// the content_crc() of the checkpoint this system deployed last (0 when
  /// it was built from a live TrainedModel), so provenance chains survive
  /// the train -> persist -> redeploy loop and `esam checkpoint diff` can
  /// verify them.
  [[nodiscard]] io::Checkpoint make_checkpoint(
      io::CheckpointMeta meta = {}) const;

  /// content_crc() of the deployed parent checkpoint (0 = model-built root).
  [[nodiscard]] std::uint32_t parent_crc() const { return parent_crc_; }

  /// The deployed baseline: the weights loaded at construction or by the
  /// last deploy() (not the live, possibly adapted, SRAM contents -- use
  /// make_checkpoint() for those).
  [[nodiscard]] const nn::SnnNetwork& deployed_network() const {
    return deployed_;
  }

  /// Attaches the evaluation stream used by evaluate()/learn_online(); the
  /// dataset must outlive the system and its spike width must match the
  /// first layer. Checkpoint-constructed systems start without one.
  void attach_test_data(const data::PreparedDataset& test);
  [[nodiscard]] bool has_test_data() const { return test_ != nullptr; }

  /// Streams up to `max_inferences` test images (0 = all) through the
  /// pipeline as one stream and reports the system metrics. run_cfg only
  /// shards the simulation over host threads: every modelled field is
  /// bit-identical for any num_threads (see
  /// arch::SystemSimulator::run_batched); only the sim_* fields differ.
  SystemReport evaluate(std::size_t max_inferences = 0,
                        const arch::RunConfig& run_cfg = {});

  /// Runs the online-learning scenario: measures clean accuracy, applies a
  /// data::DriftGenerator permutation to the test inputs, then lets
  /// arch::SystemSimulator::run_online adapt the deployed weights (output
  /// teacher plus the selected hidden-tile rule; optionally on a held-out
  /// train/eval split). Mutates the simulator's SRAM weights (that is the
  /// point); build a fresh EsamSystem to return to the deployed weights.
  OnlineReport learn_online(const OnlineOptions& opt = {});

 private:
  /// Deployed baseline weights (owned copy: checkpoint-constructed systems
  /// have no TrainedModel to point into).
  nn::SnnNetwork deployed_;
  /// Lineage of the deployed baseline (see parent_crc()).
  std::uint32_t parent_crc_ = 0;
  /// Evaluation stream; null until attach_test_data on checkpoint systems.
  const data::PreparedDataset* test_ = nullptr;
  arch::SystemSimulator sim_;
};

}  // namespace esam::core
