// Cycle-accurate, pipelined multi-tile system simulator.
//
// Plays the role of the authors' spike-by-spike Python simulation (sec. 4.1):
// it streams inferences through the cascaded tiles -- each tile working on a
// different inference concurrently, spikes handed between tiles as parallel
// binary pulses -- and prices the tiles' integer event counts with the
// per-operation energies of the SRAM / arbiter / neuron models, plus
// clock-tree and leakage power over the cycles, into the system-level
// numbers of Fig. 8 and Table 3 (throughput, energy/inference, average
// power, area).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "esam/arch/tile.hpp"
#include "esam/arch/trace.hpp"
#include "esam/learning/online_trainer.hpp"
#include "esam/nn/convert.hpp"

namespace esam::arch {

/// System-wide hardware configuration (applied to every tile).
struct SystemConfig {
  sram::CellKind cell = sram::CellKind::k1RW4R;
  Voltage vprech = util::millivolts(500.0);
  arbiter::EncoderTopology topology = arbiter::EncoderTopology::kTree;
  std::size_t max_array_dim = 128;
  std::size_t col_mux = 4;
  neuron::NeuronConfig neuron{};
  /// Clock-period multiplier vs the Table 2 nominal (see TileConfig).
  double clock_derate = 1.0;
};

/// Area accounting for Fig. 8.
struct AreaBreakdown {
  Area arrays{};
  Area arbiters{};
  Area neurons{};
  Area total{};  ///< including clock/fabric overhead
};

/// Execution configuration of the batched engine. This is a *simulation
/// software* concern (how fast the simulator itself runs), not a hardware
/// model parameter: every modelled number is the same for any `num_threads`.
///
/// There is one execution engine: every sample bursts down the cascade
/// (walk_cascade) on some worker's pipeline, then one cascaded-tile schedule
/// (fills, stalls, in-order retirement) is rebuilt from the burst durations
/// of the whole stream. The cycle-by-cycle lockstep sweep runs only under a
/// PipelineObserver (run() with an observer), where it doubles as the
/// differential test oracle (tests/test_engine_equivalence.cpp).
struct RunConfig {
  /// Worker threads sharding the samples; 0 = hardware concurrency.
  std::size_t num_threads = 1;
};

/// Outcome of one streamed run.
struct RunResult {
  std::vector<std::size_t> predictions;
  double accuracy = 0.0;  ///< only when labels were provided
  std::uint64_t cycles = 0;
  Time elapsed{};
  /// Each tile's event counts over the run, summed over every worker
  /// pipeline: the record `ledger` prices (see SystemSimulator::price).
  std::vector<TileStats> tile_counts;
  EnergyLedger ledger;
  double throughput_inf_per_s = 0.0;
  Energy energy_per_inference{};
  Power average_power{};
  double avg_cycles_per_inference = 0.0;
  /// Workers the run used (1 for the lockstep run()).
  std::size_t threads = 1;
};

/// Configuration of one online-training run (see run_online).
struct OnlineTrainConfig {
  /// Train/eval rounds over the sample stream.
  std::size_t epochs = 1;
  /// k-step delayed updates: the training stream is cut into windows of
  /// `update_interval` samples; every sample's forward pass runs against
  /// the weights frozen at the window start, the rules stage their
  /// observations in sample order, and one commit per window applies the
  /// staged column updates (repeated events on a column coalesce into a
  /// single read-modify-write -- the throughput win, see
  /// OnlineLearner::apply_column). A partial tail window commits at the
  /// end of every epoch. 1 (the default) commits after every sample, the
  /// immediate-update mode; any k is deterministic across thread counts.
  std::size_t update_interval = 1;
  /// Pipeline-wide learning configuration: base STDP seed (per-tile rule
  /// seeds are derived), teacher behaviour, hidden-rule selection.
  learning::TrainerConfig trainer{};
  /// Worker threads sharding the eval phases' samples and each training
  /// window's forward passes (0 = hardware concurrency). Pure
  /// simulation-software knob: every result is bit-identical for any count.
  std::size_t threads = 1;
};

/// Per-epoch outcome of an online-training run.
struct OnlineEpochStats {
  /// Fraction of training samples whose pre-update winner was the label
  /// (the rolling in-the-field accuracy a deployed system would observe).
  double online_accuracy = 0.0;
  /// Post-epoch accuracy of the batched eval phase.
  double eval_accuracy = 0.0;
  /// Staged column updates / physical RMWs applied during this epoch (all
  /// plastic tiles; see LearningStats for the two counters).
  learning::LearningStats learning;
  /// Training-phase forward passes of this epoch: pipeline cycles of the
  /// windowed schedule (each k-sample window overlaps tiles like the
  /// inference engine; at update_interval 1 this degenerates to the serial
  /// sum of per-tile busy cycles) and their total metered energy
  /// (SRAM/arbiter/neuron/fabric dynamic energy plus the clock and leakage
  /// integrated over those cycles).
  std::uint64_t train_cycles = 0;
  Energy train_energy{};
  /// Modelled training-phase wall time of this epoch: per window, the
  /// pipelined forward cycles times the clock period plus the commit
  /// drain. The drain models the macro RW ports: at update_interval 1
  /// every read-modify-write sits on the inter-sample critical path (the
  /// next forward consumes it), so the per-column RMW times sum serially
  /// -- train_time == train_cycles * period + learning.time, the
  /// established serial reference. At k > 1 the commit is a dedicated
  /// phase and each (tile, column-group) macro column drains its RMW
  /// queue through its own RW port concurrently, so the drain is the
  /// longest per-(tile, column-group) queue. This is the throughput
  /// metric bench_online_learning gates (ns per staged update).
  Time train_time{};
};

/// Outcome of one SystemSimulator::train_pass (see OnlineEpochStats).
struct TrainPassResult {
  std::size_t online_hits = 0;  ///< samples whose pre-update winner = label
  std::uint64_t cycles = 0;     ///< windowed forward pipeline cycles
  Time train_time{};            ///< forward cycles + commit drains
  /// The forward passes priced, plus clock and leakage over `cycles`; the
  /// commit cost stays in the trainer's LearningStats.
  EnergyLedger energy;
};

/// Outcome of run_online: the accuracy-over-time curve plus the final eval
/// with the cumulative learning cost folded into its ledger.
struct OnlineRunResult {
  /// Eval accuracy before any update (e.g. right after input drift).
  double initial_accuracy = 0.0;
  std::vector<OnlineEpochStats> epochs;
  /// Cumulative column-update stats over all epochs (every plastic tile).
  learning::LearningStats learning;
  /// Per-tile cumulative column-update stats: hidden rules make hidden
  /// tiles show up as nonzero rows here, not just the output tile.
  std::vector<learning::LearningStats> tile_learning;
  /// Metered training-phase forward-pass ledger (the sum of every pass's
  /// TrainPassResult::energy; already folded into final_eval.ledger).
  EnergyLedger train_ledger;
  /// Total modelled training wall time over all epochs (see
  /// OnlineEpochStats::train_time for the per-window forward + commit
  /// drain model).
  Time train_time{};
  /// Last eval phase; its ledger carries the cumulative learning energy
  /// under EnergyCategory::kLearning plus the training-phase forward cost,
  /// and its elapsed time includes the training and learning wall-clock
  /// (with leakage integrated over those intervals), so
  /// energy_per_inference / average_power / throughput report the combined
  /// adapt-and-infer cost.
  RunResult final_eval;
};

/// Throws std::invalid_argument, naming `who`, unless `neuron` has valid
/// register widths and every threshold of `net` fits its Vth register
/// (NeuronConfig::vth_fits, the check Tile::load_layer makes when it
/// deploys a layer). Callers run it before touching any tile, so a
/// rejected network changes nothing.
void check_thresholds_fit(const nn::SnnNetwork& net,
                          const neuron::NeuronConfig& neuron,
                          const std::string& who);

class SystemSimulator {
 public:
  /// Builds one tile per SNN layer and loads the converted weights.
  SystemSimulator(const TechnologyParams& tech, const nn::SnnNetwork& snn,
                  SystemConfig cfg);

  [[nodiscard]] std::size_t tile_count() const { return tiles_.size(); }
  [[nodiscard]] Tile& tile(std::size_t i) { return tiles_.at(i); }
  [[nodiscard]] const Tile& tile(std::size_t i) const { return tiles_.at(i); }
  /// The whole pipeline, for building a learning::OnlineTrainer that
  /// train_pass accepts (e.g. the serve adaptation thread's) and for test
  /// oracles that walk the tiles directly.
  [[nodiscard]] std::vector<Tile>& tiles() { return tiles_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }

  /// Global clock period: the slowest tile stage (all tiles share the cell
  /// type here, so this equals the Table 2 maximum for that cell).
  [[nodiscard]] Time clock_period() const;
  [[nodiscard]] util::Frequency clock_frequency() const;

  [[nodiscard]] AreaBreakdown area() const;
  [[nodiscard]] Power total_leakage() const;
  [[nodiscard]] std::size_t flop_count() const;
  [[nodiscard]] std::size_t neuron_count() const;
  [[nodiscard]] std::size_t synapse_count() const;

  /// Streams `inputs` through the pipeline back-to-back and measures
  /// system-level metrics. When `labels` is non-null, fills accuracy.
  /// Without an observer this is run_batched(inputs, labels, {}). An
  /// observer receives per-cycle tile activity (e.g. a VcdTraceWriter for
  /// waveform inspection) and selects the lockstep engine, the only one
  /// with a per-cycle order; its results are bit-identical.
  RunResult run(const std::vector<BitVec>& inputs,
                const std::vector<std::uint8_t>* labels = nullptr,
                PipelineObserver* observer = nullptr);

  /// Batched engine: streams the whole of `inputs` as one pipeline run. The
  /// samples' cascade walks are sharded over RunConfig::num_threads
  /// workers (worker 0 on the canonical tiles, the others on deep clones),
  /// each writing its prediction and per-tile busy cycles into its own
  /// slot; one schedule then retires every sample in input order. Cycles
  /// and event counts are integers, summed and priced once (see price), so
  /// predictions, cycle counts and ledger energies equal the observed
  /// lockstep run() bit for bit, for every thread count (tested in
  /// tests/test_parallel.cpp). No observer support: the sharded walks have
  /// no per-cycle order.
  RunResult run_batched(const std::vector<BitVec>& inputs,
                        const std::vector<std::uint8_t>* labels = nullptr,
                        const RunConfig& run_cfg = {});

  /// The online-training loop: one pass of `trainer` (bound to tiles())
  /// over `inputs`/`labels` in `update_interval`-sample windows. A window's
  /// forward passes run against its start weights, sharded over `threads`
  /// workers (0 = hardware concurrency; worker 0 on the canonical tiles,
  /// the others on clones built per pass); the rules stage in sample order
  /// (hidden tiles ascending, then the label) and commit once per window,
  /// the partial tail included. The result's energy prices the forwards'
  /// event counts, summed over the tiles and clones, once. Bit-identical
  /// for every `threads`. Throws std::invalid_argument, before touching a
  /// tile, on a trainer bound elsewhere, a count mismatch, a label that is
  /// not an output class, or update_interval 0.
  TrainPassResult train_pass(learning::OnlineTrainer& trainer,
                             const std::vector<BitVec>& inputs,
                             const std::vector<std::uint8_t>& labels,
                             std::size_t update_interval, std::size_t threads);

  /// Online-training run: an eval, then per epoch one train_pass and an
  /// eval of the adapted weights (batched engine); the commit cost lands
  /// once, under EnergyCategory::kLearning. Bad inputs throw
  /// std::invalid_argument before any tile is touched. This overload
  /// trains and evaluates on the same stream (the rolling field scenario).
  OnlineRunResult run_online(const std::vector<BitVec>& inputs,
                             const std::vector<std::uint8_t>& labels,
                             const OnlineTrainConfig& cfg = {});

  /// Held-out variant: trains on `inputs`/`labels` and runs every eval
  /// phase (initial, per-epoch, final) on the separate `eval_inputs` /
  /// `eval_labels` stream, so the reported curve measures generalization
  /// of the adapted weights rather than memorization.
  OnlineRunResult run_online(const std::vector<BitVec>& inputs,
                             const std::vector<std::uint8_t>& labels,
                             const std::vector<BitVec>& eval_inputs,
                             const std::vector<std::uint8_t>& eval_labels,
                             const OnlineTrainConfig& cfg);

  /// Reconstructs the network currently held in the SRAM macros (after
  /// in-field adaptation), one exported layer per tile -- checkpointing /
  /// weight-diff read-back.
  [[nodiscard]] nn::SnnNetwork export_network() const;

  /// Inverse of export_network(): loads `snn` into the existing tiles
  /// (weights, thresholds, readout offsets), e.g. deploying a checkpoint
  /// into already-built hardware or refreshing a serve worker's pipeline
  /// after a checkpoint swap. Every layer shape and threshold is validated
  /// *before* any tile is touched, so a mismatch or a threshold past
  /// vth_bits throws std::invalid_argument and leaves the currently
  /// deployed network intact.
  void import_network(const nn::SnnNetwork& snn);

  /// Energy of `cycles` pipeline cycles in which tile t gathered the event
  /// counts `counts[t]` (TileStats deltas, summed over any clones): each
  /// tile's counts priced once (Tile::price), plus the clock tree and
  /// leakage over the cycles. Every engine prices this way, so their
  /// ledgers agree whenever their counts and cycles do.
  [[nodiscard]] EnergyLedger price(std::span<const TileStats> counts,
                                   std::uint64_t cycles) const;

 private:
  /// Fills the derived metrics (throughput, energy/inf, power) of `result`.
  void finalize_metrics(RunResult& result, std::size_t n,
                        const std::vector<std::uint8_t>* labels) const;

  const TechnologyParams* tech_;
  SystemConfig cfg_;
  std::vector<Tile> tiles_;
};

}  // namespace esam::arch
