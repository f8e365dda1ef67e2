#include "esam/arch/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "esam/util/parallel.hpp"

namespace esam::arch {
namespace {

/// Clock capacitance per flop (clock tree + local clock buffers), fitted
/// jointly with the other per-cycle constants against the 607 pJ/Inf and
/// 29 mW system anchors.
constexpr double kClockCapPerFlopFf = 0.85;
/// Area overhead for clock distribution + inter-tile fabric.
constexpr double kSystemAreaOverhead = 0.05;

/// The cascaded-tile cycle schedule, rebuilt from burst durations alone. A
/// tile's busy cycles per sample do not depend on the schedule (while it
/// waits for the downstream tile it holds its output and does nothing), so
/// feeding each sample's per-tile busy cycles in order reproduces the
/// lockstep fills, stalls and in-order retirement:
///   latch[0](s)   = freed[0](s-1)  (tile 0 re-latches the cycle its previous
///                   output was taken; the first sample latches at 0);
///   fire[t](s)    = latch[t](s) + busy[t](s);
///   freed[t](s)   = t == last ? fire (retired immediately, in order)
///                   : max(fire[t](s), freed[t+1](s-1))  (the downstream-
///                   first handoff scan allows a same-cycle chain);
///   latch[t+1](s) = freed[t](s).
class CascadeSchedule {
 public:
  explicit CascadeSchedule(std::size_t tiles) : freed_(tiles, 0) {}

  /// Feeds the next sample's per-tile busy cycles; returns the cycle at
  /// which the last tile retires it.
  std::uint64_t retire(std::span<const std::uint64_t> busy) {
    const std::size_t last = freed_.size() - 1;
    std::uint64_t latch = freed_[0];
    for (std::size_t t = 0; t < last; ++t) {
      const std::uint64_t fire = latch + busy[t];
      freed_[t] = std::max(fire, freed_[t + 1]);
      latch = freed_[t];
    }
    freed_[last] = latch + busy[last];
    return freed_[last];
  }

 private:
  std::vector<std::uint64_t> freed_;
};

void check_inputs(const std::vector<BitVec>& inputs,
                  const std::vector<std::uint8_t>* labels) {
  if (inputs.empty()) {
    throw std::invalid_argument("SystemSimulator::run: no inputs");
  }
  if (labels != nullptr && labels->size() != inputs.size()) {
    throw std::invalid_argument("SystemSimulator::run: label count mismatch");
  }
}

void check_labels(const std::vector<std::uint8_t>& labels, std::size_t classes,
                  const std::string& who) {
  for (const std::uint8_t y : labels) {
    if (y >= classes) {
      throw std::invalid_argument(who + ": label exceeds output count");
    }
  }
}

std::vector<TileStats> stats_of(const std::vector<Tile>& tiles) {
  std::vector<TileStats> stats;
  stats.reserve(tiles.size());
  for (const Tile& t : tiles) stats.push_back(t.stats());
  return stats;
}

/// The event counts `tiles` and every clone in `clones` gathered since
/// `start` -- the stats they all had when the clones were made -- summed per
/// tile position.
std::vector<TileStats> counts_since(
    const std::vector<TileStats>& start, const std::vector<Tile>& tiles,
    const std::vector<std::vector<Tile>>& clones) {
  std::vector<TileStats> counts(start.size());
  for (std::size_t t = 0; t < start.size(); ++t) {
    counts[t] += tiles[t].stats() - start[t];
    for (const std::vector<Tile>& clone : clones) {
      counts[t] += clone[t].stats() - start[t];
    }
  }
  return counts;
}

/// The stream run through `tiles` cycle by cycle in lockstep: the observer
/// path of run() and the differential oracle of the fast engine. Writes
/// predictions[i] for inputs[i]; returns the stream cycles.
std::uint64_t stream_lockstep(std::vector<Tile>& tiles,
                              std::span<const BitVec> inputs,
                              PipelineObserver& observer,
                              std::span<std::size_t> predictions) {
  const std::size_t n = inputs.size();
  const std::size_t last = tiles.size() - 1;
  std::size_t next_input = 0;
  std::size_t completed = 0;
  std::uint64_t cycles = 0;

  std::vector<TileActivity> activity(tiles.size());
  std::vector<std::uint64_t> served_before(tiles.size(), 0);
  std::vector<bool> busy_before(tiles.size(), false);
  std::vector<bool> ready_before(tiles.size(), false);
  // Hang detector: a pipeline whose every burst stays under the per-tile
  // limit retires n samples within (n + tiles) bursts.
  const std::uint64_t cycle_limit =
      (static_cast<std::uint64_t>(n) + tiles.size()) * kMaxBurstCycles;

  while (completed < n) {
    check_cycle_limit(++cycles, cycle_limit,
                      "SystemSimulator: pipeline deadlock");

    for (std::size_t i = 0; i < tiles.size(); ++i) {
      served_before[i] = tiles[i].stats().spikes_served;
      busy_before[i] = tiles[i].busy();
      ready_before[i] = tiles[i].output_ready();
    }

    for (auto& t : tiles) t.step();

    for (std::size_t i = 0; i < tiles.size(); ++i) {
      activity[i].busy = busy_before[i];
      activity[i].grants = static_cast<std::uint32_t>(
          tiles[i].stats().spikes_served - served_before[i]);
      activity[i].pending =
          static_cast<std::uint32_t>(tiles[i].pending_requests());
      activity[i].fired = !ready_before[i] && tiles[i].output_ready();
    }
    observer.cycle(cycles - 1, activity);

    // Handoffs, downstream first so a freed tile can accept in the same
    // cycle it drained.
    for (std::size_t l = tiles.size(); l-- > 0;) {
      if (!tiles[l].output_ready()) continue;
      if (l == last) {
        predictions[completed++] = tiles[l].winner();
        tiles[l].consume_output();
      } else if (!tiles[l + 1].busy() && !tiles[l + 1].output_ready()) {
        tiles[l + 1].start_inference(tiles[l].take_output());
      }
    }

    if (next_input < n && !tiles[0].busy() && !tiles[0].output_ready()) {
      tiles[0].start_inference(inputs[next_input++]);
    }
  }
  return cycles;
}

}  // namespace

SystemSimulator::SystemSimulator(const TechnologyParams& tech,
                                 const nn::SnnNetwork& snn, SystemConfig cfg)
    : tech_(&tech), cfg_(cfg) {
  if (snn.layers().empty()) {
    throw std::invalid_argument("SystemSimulator: empty network");
  }
  tiles_.reserve(snn.layers().size());
  for (std::size_t l = 0; l < snn.layers().size(); ++l) {
    const nn::SnnLayer& layer = snn.layers()[l];
    TileConfig tc;
    tc.inputs = layer.in_features();
    tc.outputs = layer.out_features();
    tc.cell = cfg.cell;
    tc.vprech = cfg.vprech;
    tc.topology = cfg.topology;
    tc.max_array_dim = cfg.max_array_dim;
    tc.col_mux = cfg.col_mux;
    tc.neuron = cfg.neuron;
    tc.clock_derate = cfg.clock_derate;
    tc.is_output_layer = (l + 1 == snn.layers().size());
    tiles_.emplace_back(tech, tc);
    tiles_.back().load_layer(layer);
  }
}

Time SystemSimulator::clock_period() const {
  Time worst{};
  for (const auto& t : tiles_) worst = std::max(worst, t.clock_period());
  return worst;
}

util::Frequency SystemSimulator::clock_frequency() const {
  return util::inverse(clock_period());
}

AreaBreakdown SystemSimulator::area() const {
  AreaBreakdown b;
  for (const auto& t : tiles_) {
    b.arrays += t.array_area();
    b.arbiters += t.arbiter_area();
    b.neurons += t.neuron_area();
  }
  b.total = (b.arrays + b.arbiters + b.neurons) * (1.0 + kSystemAreaOverhead);
  return b;
}

Power SystemSimulator::total_leakage() const {
  Power p{};
  for (const auto& t : tiles_) p += t.leakage();
  return p;
}

std::size_t SystemSimulator::flop_count() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t.flop_count();
  return n;
}

std::size_t SystemSimulator::neuron_count() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t.config().outputs;
  return n;
}

std::size_t SystemSimulator::synapse_count() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t.config().inputs * t.config().outputs;
  return n;
}

EnergyLedger SystemSimulator::price(std::span<const TileStats> counts,
                                    std::uint64_t cycles) const {
  if (counts.size() != tiles_.size()) {
    throw std::invalid_argument("SystemSimulator::price: one count per tile");
  }
  EnergyLedger ledger;
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    ledger += tiles_[t].price(counts[t]);
  }
  const double vdd = util::in_volts(tech_->vdd);
  const Energy clock_per_cycle =
      util::joules(static_cast<double>(flop_count()) * kClockCapPerFlopFf *
                   1e-15 * vdd * vdd);
  const auto cycles_d = static_cast<double>(cycles);
  ledger.add(util::EnergyCategory::kClock, clock_per_cycle * cycles_d);
  ledger.advance_time_with_leakage(clock_period() * cycles_d, total_leakage());
  return ledger;
}

void SystemSimulator::finalize_metrics(
    RunResult& result, std::size_t n,
    const std::vector<std::uint8_t>* labels) const {
  result.elapsed = result.ledger.elapsed();
  result.throughput_inf_per_s =
      static_cast<double>(n) / util::in_seconds(result.elapsed);
  result.energy_per_inference =
      result.ledger.total_energy() / static_cast<double>(n);
  result.average_power = result.ledger.average_power();
  result.avg_cycles_per_inference =
      static_cast<double>(result.cycles) / static_cast<double>(n);

  if (labels != nullptr) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (result.predictions[i] == (*labels)[i]) ++correct;
    }
    result.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  }
}

RunResult SystemSimulator::run(const std::vector<BitVec>& inputs,
                               const std::vector<std::uint8_t>* labels,
                               PipelineObserver* observer) {
  if (observer == nullptr) return run_batched(inputs, labels, {});
  check_inputs(inputs, labels);

  RunResult result;
  result.predictions.resize(inputs.size());
  const std::vector<TileStats> start = stats_of(tiles_);
  observer->begin(tiles_.size(), clock_period());
  result.cycles =
      stream_lockstep(tiles_, inputs, *observer, result.predictions);
  observer->end(result.cycles);
  result.tile_counts = counts_since(start, tiles_, {});
  result.ledger = price(result.tile_counts, result.cycles);

  finalize_metrics(result, inputs.size(), labels);
  return result;
}

RunResult SystemSimulator::run_batched(const std::vector<BitVec>& inputs,
                                       const std::vector<std::uint8_t>* labels,
                                       const RunConfig& run_cfg) {
  check_inputs(inputs, labels);

  const std::size_t n = inputs.size();
  const std::size_t stages = tiles_.size();
  const std::size_t workers = util::resolve_workers(run_cfg.num_threads, n);

  // Phase 1: each sample walks down the cascade on its own (a tile's events
  // and busy cycles per sample do not depend on the schedule), fanned out
  // over the workers. Worker 0 walks the canonical tiles; every other worker
  // gets one deep-cloned pipeline. Each sample writes its own slots.
  RunResult result;
  result.predictions.resize(n);
  std::vector<std::uint64_t> busy(n * stages);
  const std::span<std::uint64_t> busy_of(busy);
  const std::vector<TileStats> start = stats_of(tiles_);
  std::vector<std::vector<Tile>> clones(workers - 1, tiles_);
  std::vector<BitVec> handoffs(workers);
  util::parallel_for(n, workers, [&](std::size_t w, std::size_t i) {
    result.predictions[i] =
        walk_cascade(w == 0 ? tiles_ : clones[w - 1], inputs[i], handoffs[w],
                     busy_of.subspan(i * stages, stages),
                     [](std::size_t, const Tile&) {});
  });

  // Phase 2: one schedule retires the whole stream in input order. Lockstep
  // latches the first sample at the end of its first cycle, one cycle after
  // the schedule's origin.
  CascadeSchedule schedule(stages);
  for (std::size_t i = 0; i < n; ++i) {
    result.cycles = schedule.retire(busy_of.subspan(i * stages, stages));
  }
  result.cycles += 1;
  result.tile_counts = counts_since(start, tiles_, clones);
  result.ledger = price(result.tile_counts, result.cycles);
  result.threads = workers;

  finalize_metrics(result, n, labels);
  return result;
}

OnlineRunResult SystemSimulator::run_online(
    const std::vector<BitVec>& inputs, const std::vector<std::uint8_t>& labels,
    const OnlineTrainConfig& cfg) {
  // The rolling field scenario: the stream being adapted to is the stream
  // being scored.
  return run_online(inputs, labels, inputs, labels, cfg);
}

TrainPassResult SystemSimulator::train_pass(
    learning::OnlineTrainer& trainer, const std::vector<BitVec>& inputs,
    const std::vector<std::uint8_t>& labels, std::size_t update_interval,
    std::size_t threads) {
  if (!trainer.bound_to(tiles_)) {
    throw std::invalid_argument(
        "SystemSimulator::train_pass: trainer is bound to other tiles");
  }
  if (labels.size() != inputs.size()) {
    throw std::invalid_argument(
        "SystemSimulator::train_pass: label count mismatch");
  }
  check_labels(labels, tiles_.back().config().outputs,
               "SystemSimulator::train_pass");
  if (update_interval == 0) {
    throw std::invalid_argument(
        "SystemSimulator::train_pass: update_interval must be >= 1");
  }

  const std::size_t n = inputs.size();
  const std::size_t k = update_interval;
  const std::size_t window = std::min(k, n);
  const std::size_t last = tiles_.size() - 1;

  // One record per window slot, reused across windows (the BitVec /
  // vector slots keep their capacity).
  struct SampleRecord {
    std::size_t winner = 0;
    std::vector<std::uint64_t> busy;          // per tile: burst cycles
    std::vector<BitVec> pre;                  // per plastic tile: its input
    std::vector<std::vector<std::size_t>> hidden_cols;  // resolved winners
    BitVec handoff;                           // inter-tile spike chain
  };
  std::vector<SampleRecord> recs(window);
  for (SampleRecord& r : recs) {
    r.busy.resize(tiles_.size());
    r.pre.resize(tiles_.size());
    r.hidden_cols.resize(tiles_.size());
  }

  // Forward `input` through `tiles` with the per-sample cascade walk,
  // recording busy cycles and the rule observations. Weights are frozen
  // within a window, so this is independent per sample -- workers run it
  // concurrently on their clones.
  auto forward_one = [&](std::vector<Tile>& tiles, const BitVec& input,
                         SampleRecord& rec) {
    rec.winner = walk_cascade(
        tiles, input, rec.handoff, rec.busy,
        [&](std::size_t t, const Tile& tile) {
          if (!trainer.tile_plastic(t)) return;
          rec.pre[t] = tile.last_input();
          if (t != last) {
            trainer.rule(t)->resolve_forward(tile, rec.hidden_cols[t]);
          }
        });
  };

  // Worker 0 runs the canonical tiles; every other worker gets a tile
  // clone built for this pass and kept in sync column-wise after every
  // commit.
  const std::size_t workers = util::resolve_workers(threads, window);
  const std::vector<TileStats> start = stats_of(tiles_);
  std::vector<std::vector<Tile>> clones(workers - 1, tiles_);
  std::vector<std::vector<learning::ColumnRmw>> written;
  std::vector<Time> cg_drains;  // per-column-group commit-queue scratch
  const Time period = clock_period();

  TrainPassResult out;
  for (std::size_t w0 = 0; w0 < n; w0 += k) {
    const std::size_t wn = std::min(k, n - w0);

    // Phase 1: the window's forward passes, fanned out over the workers.
    util::parallel_for(wn, workers, [&](std::size_t w, std::size_t s) {
      forward_one(w == 0 ? tiles_ : clones[w - 1], inputs[w0 + s], recs[s]);
    });

    // Phase 2: retire in sample order -- accuracy, the window's cycle
    // schedule (first latch at 0, so a one-sample window costs exactly its
    // serial burst sum), and the rule observations staged in sample order.
    CascadeSchedule schedule(tiles_.size());
    std::uint64_t window_cycles = 0;
    for (std::size_t s = 0; s < wn; ++s) {
      SampleRecord& rec = recs[s];
      const std::size_t i = w0 + s;
      if (rec.winner == labels[i]) ++out.online_hits;
      window_cycles = schedule.retire(rec.busy);
      for (std::size_t t = 0; t < last; ++t) {
        trainer.stage_hidden(t, rec.pre[t], rec.hidden_cols[t]);
      }
      trainer.stage_label(rec.pre[last], rec.winner, labels[i]);
    }
    out.cycles += window_cycles;

    // Phase 3: one commit per window, then resync only the written
    // columns into the clones (cost-free copies; the clones never learn,
    // they only mirror).
    trainer.commit_pending(&written);
    for (std::vector<Tile>& clone : clones) {
      for (std::size_t t = 0; t < tiles_.size(); ++t) {
        for (const learning::ColumnRmw& rmw : written[t]) {
          clone[t].copy_column_from(tiles_[t], rmw.column);
        }
      }
    }

    // The window's commit drain (see OnlineEpochStats::train_time), from
    // each committed column's RMW port time. At k == 1 every RMW sits on
    // the inter-sample critical path, so the drains serialize into the
    // established learning.time sum; at k > 1 the per-(tile, column-group)
    // queues drain through their own RW ports concurrently in a dedicated
    // commit phase, so the window pays only the longest queue.
    Time drain{};
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const std::size_t dim = tiles_[t].config().max_array_dim;
      cg_drains.assign(tiles_[t].col_groups(), Time{});
      for (const learning::ColumnRmw& rmw : written[t]) {
        if (k == 1) {
          drain += rmw.time;
        } else {
          cg_drains[rmw.column / dim] += rmw.time;
        }
      }
      for (const Time q : cg_drains) drain = std::max(drain, q);
    }
    out.train_time += period * static_cast<double>(window_cycles) + drain;
  }

  // The commits touch no tile counter, so the counts are the forwards'.
  out.energy = price(counts_since(start, tiles_, clones), out.cycles);
  return out;
}

OnlineRunResult SystemSimulator::run_online(
    const std::vector<BitVec>& inputs, const std::vector<std::uint8_t>& labels,
    const std::vector<BitVec>& eval_inputs,
    const std::vector<std::uint8_t>& eval_labels,
    const OnlineTrainConfig& cfg) {
  if (inputs.empty() || eval_inputs.empty()) {
    throw std::invalid_argument("SystemSimulator::run_online: no inputs");
  }
  if (labels.size() != inputs.size() ||
      eval_labels.size() != eval_inputs.size()) {
    throw std::invalid_argument(
        "SystemSimulator::run_online: label count mismatch");
  }
  const std::size_t classes = tiles_.back().config().outputs;
  check_labels(labels, classes, "SystemSimulator::run_online");
  check_labels(eval_labels, classes, "SystemSimulator::run_online");
  if (cfg.update_interval == 0) {
    throw std::invalid_argument(
        "SystemSimulator::run_online: update_interval must be >= 1");
  }

  OnlineRunResult out;
  const RunConfig eval_cfg{.num_threads = cfg.threads};
  RunResult eval = run_batched(eval_inputs, &eval_labels, eval_cfg);
  out.initial_accuracy = eval.accuracy;

  learning::OnlineTrainer trainer(tiles_, cfg.trainer);
  // Meters the training-phase forward passes of every epoch (see
  // train_pass), so the adapt-phase energy story covers inference +
  // updates. The rules' column updates are accounted once, via
  // LearningStats.
  EnergyLedger train_ledger;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const learning::LearningStats before = trainer.stats();
    const TrainPassResult pass = train_pass(
        trainer, inputs, labels, cfg.update_interval, cfg.threads);
    train_ledger += pass.energy;
    eval = run_batched(eval_inputs, &eval_labels, eval_cfg);

    OnlineEpochStats ep;
    ep.online_accuracy = static_cast<double>(pass.online_hits) /
                         static_cast<double>(inputs.size());
    ep.eval_accuracy = eval.accuracy;
    ep.learning = trainer.stats().since(before);
    ep.train_cycles = pass.cycles;
    ep.train_energy = pass.energy.total_energy();
    ep.train_time = pass.train_time;
    out.train_time += pass.train_time;
    out.epochs.push_back(ep);
  }
  out.learning = trainer.stats();
  out.tile_learning.reserve(trainer.tile_count());
  for (std::size_t t = 0; t < trainer.tile_count(); ++t) {
    out.tile_learning.push_back(trainer.tile_stats(t));
  }
  out.train_ledger = train_ledger;

  // Fold the training-phase forward cost and the cumulative learning cost
  // into the final eval phase so its derived metrics describe the combined
  // adapt-and-infer workload. The arrays keep leaking while the column
  // updates run, so the learning interval integrates static power like
  // every simulated cycle does.
  eval.ledger += train_ledger;
  eval.ledger.add(util::EnergyCategory::kLearning, out.learning.energy);
  eval.ledger.advance_time_with_leakage(out.learning.time, total_leakage());
  finalize_metrics(eval, eval_inputs.size(), &eval_labels);
  out.final_eval = std::move(eval);
  return out;
}

void check_thresholds_fit(const nn::SnnNetwork& net,
                          const neuron::NeuronConfig& neuron,
                          const std::string& who) {
  neuron.validate();
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    for (const std::int32_t vth : net.layers()[l].thresholds) {
      if (!neuron.vth_fits(vth)) {
        throw std::invalid_argument(
            who + ": layer " + std::to_string(l) + " threshold " +
            std::to_string(vth) + " does not fit the " +
            std::to_string(neuron.vth_bits) + "-bit Vth register");
      }
    }
  }
}

nn::SnnNetwork SystemSimulator::export_network() const {
  std::vector<nn::SnnLayer> layers;
  layers.reserve(tiles_.size());
  for (const Tile& t : tiles_) layers.push_back(t.export_layer());
  return nn::SnnNetwork::from_layers(std::move(layers));
}

void SystemSimulator::import_network(const nn::SnnNetwork& snn) {
  const std::vector<nn::SnnLayer>& layers = snn.layers();
  if (layers.size() != tiles_.size()) {
    throw std::invalid_argument(
        "SystemSimulator::import_network: network has " +
        std::to_string(layers.size()) + " layers, hardware has " +
        std::to_string(tiles_.size()) + " tiles");
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (layers[l].in_features() != tiles_[l].config().inputs ||
        layers[l].out_features() != tiles_[l].config().outputs) {
      throw std::invalid_argument(
          "SystemSimulator::import_network: layer " + std::to_string(l) +
          " shape " + std::to_string(layers[l].in_features()) + "x" +
          std::to_string(layers[l].out_features()) + " does not match tile " +
          std::to_string(tiles_[l].config().inputs) + "x" +
          std::to_string(tiles_[l].config().outputs));
    }
  }
  check_thresholds_fit(snn, cfg_.neuron, "SystemSimulator::import_network");
  for (std::size_t l = 0; l < layers.size(); ++l) {
    tiles_[l].load_layer(layers[l]);
  }
}

}  // namespace esam::arch
