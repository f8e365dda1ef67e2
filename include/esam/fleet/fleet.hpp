// Fleet-scale multi-device simulation.
//
// FleetSimulator composes what bench_mc_variation, bench_fault_injection
// and the drift scenario each exercise in isolation: N dies from a
// DeviceFactory, each with its own process corner, fault map and drift
// trajectory, each running its shard of a shared test stream and adapting
// in the field through the per-tile rule engine. Devices execute across a
// worker pool, but every per-device result depends only on (config, id) and
// reports merge by device id into pre-sized slots -- the same
// deterministic-merge discipline as SystemSimulator::run_batched -- so the
// fleet report is bit-identical for any worker count.
#pragma once

#include "esam/data/dataset.hpp"
#include "esam/fleet/device_factory.hpp"
#include "esam/learning/online_trainer.hpp"

#include <string>
#include <vector>

namespace esam::fleet {

/// Fleet-run configuration.
struct FleetConfig {
  /// Simulated dies.
  std::size_t devices = 16;
  /// Host worker threads building and running devices (0 = hardware
  /// concurrency). Pure simulation-software knob: the report is
  /// bit-identical for every value.
  std::size_t workers = 1;
  /// Test samples per device shard (0 = every die runs the full stream).
  /// Device i starts at offset (i * shard) mod stream size and wraps, so
  /// shards tile the shared stream instead of replaying one prefix.
  std::size_t shard_inferences = 128;
  /// In-field adaptation rounds after the drift hits (0 = frozen weights:
  /// the drifted evaluation doubles as the final one).
  std::size_t adapt_epochs = 1;
  /// k-step commit window of the adaptation (OnlineTrainConfig).
  std::size_t update_interval = 1;
  /// Functional-yield floor: a die counts as good when its final
  /// (post-adaptation) accuracy reaches this fraction.
  double accuracy_floor = 0.5;
  /// Per-die Monte-Carlo knobs (variation sigma, defect rate, drift, seed).
  DeviceModelConfig device{};
  /// Hardware configuration shared by every die.
  arch::SystemConfig hw{};
  /// In-field teacher. stdp.seed is overridden per device with the die's
  /// decorrelated learning stream; gentle fine-tune rates by default.
  learning::TrainerConfig trainer{.stdp = learning::fine_tune_stdp(0)};
};

/// Per-die scenario outcome.
struct DeviceReport {
  std::size_t id = 0;
  DeviceSeeds seeds{};
  tech::VariationSample variation{};
  std::size_t fault_cells = 0;
  DeviceTiming timing{};
  std::size_t inferences = 0;       ///< effective shard size after clamping
  double accuracy_clean = 0.0;      ///< before drift, faults already in
  double accuracy_drifted = 0.0;    ///< after drift, before adaptation
  double accuracy_final = 0.0;      ///< after in-field adaptation
  double energy_per_inf_pj = 0.0;   ///< final evaluation pass
  double leakage_mw = 0.0;          ///< whole-system leakage on this corner
  std::uint64_t column_updates = 0; ///< staged learning events
  bool functional = false;          ///< accuracy_final >= accuracy_floor
};

/// min / p50 / p99.7 (plus mean and sigma) of one metric across dies --
/// the same order statistics bench_mc_variation reports per node.
struct Distribution {
  double min = 0.0;
  double p50 = 0.0;
  double p997 = 0.0;
  double mean = 0.0;
  double sigma = 0.0;
};

/// Order statistics of a non-empty sample (sorts a copy).
[[nodiscard]] Distribution summarize(std::vector<double> xs);

struct FleetReport {
  std::size_t devices = 0;
  std::string cell;
  /// Fraction of dies whose SRAM read path fits the Table 2 clock stage.
  double timing_yield = 0.0;
  /// Fraction of dies whose final accuracy reaches accuracy_floor.
  double functional_yield = 0.0;
  double accuracy_floor = 0.0;
  Distribution accuracy_clean{};
  Distribution accuracy_drifted{};
  Distribution accuracy_final{};
  Distribution energy_per_inf_pj{};
  Distribution read_path_ns{};
  Distribution leakage_mw{};
  Distribution fault_cells{};
  std::vector<DeviceReport> per_device;

  void print() const;
};

class FleetSimulator {
 public:
  /// `snn`, `test` and `nominal` must outlive the simulator.
  FleetSimulator(const nn::SnnNetwork& snn, const data::PreparedDataset& test,
                 const tech::TechnologyParams& nominal, FleetConfig cfg);

  [[nodiscard]] const FleetConfig& config() const { return cfg_; }
  [[nodiscard]] const DeviceFactory& factory() const { return factory_; }

  /// Builds and runs every die, merging reports by device id. Deterministic
  /// for any worker count.
  [[nodiscard]] FleetReport run() const;

 private:
  [[nodiscard]] DeviceReport run_device(std::size_t device_id) const;

  const data::PreparedDataset* test_;
  FleetConfig cfg_;
  DeviceFactory factory_;
};

}  // namespace esam::fleet
