#include "esam/core/esam.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "esam/tech/technology.hpp"
#include "esam/util/table.hpp"

namespace esam::core {

TrainedModel TrainedModel::create(const ModelConfig& cfg) {
  TrainedModel out;
  bool loaded = false;
  if (!cfg.cache_path.empty()) {
    nn::BnnNetwork cached;
    if (nn::BnnNetwork::load(cfg.cache_path, cached) &&
        cached.shape() == cfg.shape) {
      out.bnn = std::move(cached);
      loaded = true;
      if (cfg.verbose) {
        // Progress goes to stderr: the library never claims stdout
        // (esam_lint rule no-stdout; the CLI reports there).
        std::fprintf(stderr, "[esam] loaded cached BNN from %s\n",
                     cfg.cache_path.c_str());
      }
    }
  }
  if (loaded) {
    // Only the test split: it is the one a cold create builds beside the
    // train split (see data::load_default_split).
    out.data = data::load_default_split(0, cfg.n_test, cfg.data_seed);
  } else {
    out.data = data::load_default_split(cfg.n_train, cfg.n_test, cfg.data_seed);
    util::Rng rng(cfg.train.seed);
    out.bnn = nn::BnnNetwork(cfg.shape, rng);
    nn::BnnTrainer trainer(out.bnn, cfg.train);
    if (cfg.verbose) {
      std::fprintf(stderr,
                   "[esam] training BNN %zu samples x %zu epochs on %s data\n",
                   out.data.train.size(), cfg.train.epochs,
                   out.data.train.source.c_str());
    }
    trainer.fit(out.data.train.bipolar, out.data.train.labels);
    if (!cfg.cache_path.empty()) out.bnn.save(cfg.cache_path);
    out.bnn_train_accuracy =
        out.bnn.accuracy(out.data.train.bipolar, out.data.train.labels);
  }

  out.bnn_test_accuracy =
      out.bnn.accuracy(out.data.test.bipolar, out.data.test.labels);
  out.snn = nn::SnnNetwork::from_bnn(out.bnn);
  return out;
}

EsamSystem::EsamSystem(const TrainedModel& model, arch::SystemConfig hw)
    : EsamSystem(model, hw, tech::imec3nm()) {}

EsamSystem::EsamSystem(const TrainedModel& model, arch::SystemConfig hw,
                       const tech::TechnologyParams& node)
    : EsamSystem(model.snn, hw, node) {
  test_ = &model.data.test;
}

EsamSystem::EsamSystem(const nn::SnnNetwork& snn, arch::SystemConfig hw,
                       const tech::TechnologyParams& node)
    : deployed_(snn), sim_(node, deployed_, hw) {}

EsamSystem::EsamSystem(const io::Checkpoint& ckpt, arch::SystemConfig hw)
    : EsamSystem(ckpt, hw, tech::imec3nm()) {}

EsamSystem::EsamSystem(const io::Checkpoint& ckpt, arch::SystemConfig hw,
                       const tech::TechnologyParams& node)
    : deployed_(ckpt.network), parent_crc_(ckpt.content_crc()),
      sim_(node, deployed_, hw) {}

void EsamSystem::deploy(const io::Checkpoint& ckpt) {
  sim_.import_network(ckpt.network);  // validates shape before mutating
  deployed_ = ckpt.network;
  parent_crc_ = ckpt.content_crc();
}

io::Checkpoint EsamSystem::make_checkpoint(io::CheckpointMeta meta) const {
  meta.parent_crc = parent_crc_;
  return io::Checkpoint::from_network(sim_.export_network(), std::move(meta));
}

void EsamSystem::attach_test_data(const data::PreparedDataset& test) {
  if (test.size() == 0) {
    throw std::invalid_argument("EsamSystem::attach_test_data: empty dataset");
  }
  if (test.spikes.front().size() != sim_.tile(0).config().inputs) {
    throw std::invalid_argument(
        "EsamSystem::attach_test_data: spike width does not match the "
        "deployed network's input layer");
  }
  test_ = &test;
}

SystemReport EsamSystem::evaluate(std::size_t max_inferences,
                                  const arch::RunConfig& run_cfg) {
  if (test_ == nullptr) {
    throw std::logic_error(
        "EsamSystem::evaluate: no evaluation data attached "
        "(checkpoint-deployed system; call attach_test_data first)");
  }
  const data::PreparedDataset& test = *test_;
  std::size_t n = test.size();
  if (max_inferences != 0 && max_inferences < n) n = max_inferences;

  std::vector<util::BitVec> inputs(test.spikes.begin(),
                                   test.spikes.begin() +
                                       static_cast<std::ptrdiff_t>(n));
  std::vector<std::uint8_t> labels(test.labels.begin(),
                                   test.labels.begin() +
                                       static_cast<std::ptrdiff_t>(n));

  // The fast engine, one stream for any thread count; lockstep runs only
  // under an observer (run() with a trace).
  const auto wall_start = std::chrono::steady_clock::now();
  const arch::RunResult r = sim_.run_batched(inputs, &labels, run_cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  SystemReport rep;
  rep.cell = std::string(sram::to_string(sim_.config().cell));
  rep.dataset_source = test.source;
  rep.clock_mhz = util::in_megahertz(sim_.clock_frequency());
  rep.throughput_minf_per_s = r.throughput_inf_per_s / 1e6;
  rep.energy_per_inf_pj = util::in_picojoules(r.energy_per_inference);
  rep.power_mw = util::in_milliwatts(r.average_power);
  rep.area_um2 = util::in_square_microns(sim_.area().total);
  rep.accuracy = r.accuracy;
  rep.avg_cycles_per_inf = r.avg_cycles_per_inference;
  rep.neurons = sim_.neuron_count();
  rep.synapses = sim_.synapse_count();
  rep.inferences = n;
  rep.sim_wall_s = wall_s;
  rep.sim_inf_per_s = wall_s > 0.0 ? static_cast<double>(n) / wall_s : 0.0;
  rep.sim_threads = r.threads;
  return rep;
}

OnlineReport EsamSystem::learn_online(const OnlineOptions& opt) {
  if (opt.holdout_fraction < 0.0 || opt.holdout_fraction >= 1.0) {
    throw std::invalid_argument(
        "EsamSystem::learn_online: holdout_fraction must be in [0, 1)");
  }
  if (test_ == nullptr) {
    throw std::logic_error(
        "EsamSystem::learn_online: no evaluation data attached "
        "(checkpoint-deployed system; call attach_test_data first)");
  }
  const data::PreparedDataset& test = *test_;
  std::size_t n = test.size();
  if (opt.max_inferences != 0 && opt.max_inferences < n) {
    n = opt.max_inferences;
  }
  const std::vector<util::BitVec> inputs(
      test.spikes.begin(),
      test.spikes.begin() + static_cast<std::ptrdiff_t>(n));
  const std::vector<std::uint8_t> labels(
      test.labels.begin(),
      test.labels.begin() + static_cast<std::ptrdiff_t>(n));

  OnlineReport rep;
  rep.cell = std::string(sram::to_string(sim_.config().cell));
  rep.dataset_source = test.source;
  rep.inferences = n;
  rep.epochs = opt.epochs;
  rep.drift_fraction = opt.drift_fraction;
  rep.hidden_rule = std::string(learning::to_string(opt.trainer.hidden_rule));

  const data::DriftGenerator drift(inputs.front().size(), opt.drift_fraction,
                                   opt.drift_seed);
  const std::vector<util::BitVec> drifted = drift.apply_all(inputs);

  // Held-out split: train on the head, evaluate on the tail. With no
  // holdout both streams are the full window (the rolling field scenario).
  std::size_t n_eval = n;
  std::size_t n_train = n;
  if (opt.holdout_fraction > 0.0) {
    if (n < 2) {
      throw std::invalid_argument(
          "EsamSystem::learn_online: holdout needs at least 2 samples "
          "(one to train on, one to evaluate)");
    }
    n_eval = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n) *
                                    opt.holdout_fraction));
    n_eval = std::min(n_eval, n - 1);  // keep at least one training sample
    n_train = n - n_eval;
  }
  rep.train_samples = n_train;
  rep.eval_samples = n_eval;
  const auto split = static_cast<std::ptrdiff_t>(n_train);
  const std::vector<util::BitVec> train_in(drifted.begin(),
                                           drifted.begin() + split);
  const std::vector<std::uint8_t> train_lab(labels.begin(),
                                            labels.begin() + split);
  const std::vector<util::BitVec> eval_in(
      opt.holdout_fraction > 0.0 ? drifted.begin() + split : drifted.begin(),
      drifted.end());
  const std::vector<std::uint8_t> eval_lab(
      opt.holdout_fraction > 0.0 ? labels.begin() + split : labels.begin(),
      labels.end());
  const std::vector<util::BitVec> clean_eval_in(
      opt.holdout_fraction > 0.0 ? inputs.begin() + split : inputs.begin(),
      inputs.end());

  rep.accuracy_clean =
      sim_.run_batched(clean_eval_in, &eval_lab, opt.run).accuracy;

  arch::OnlineTrainConfig cfg;
  cfg.epochs = opt.epochs;
  cfg.update_interval = opt.update_interval;
  cfg.trainer = opt.trainer;
  cfg.threads = opt.run.num_threads;
  rep.update_interval = opt.update_interval;
  const arch::OnlineRunResult r =
      sim_.run_online(train_in, train_lab, eval_in, eval_lab, cfg);

  rep.accuracy_drifted = r.initial_accuracy;
  for (const arch::OnlineEpochStats& ep : r.epochs) {
    rep.epoch_eval_accuracy.push_back(ep.eval_accuracy);
    rep.epoch_online_accuracy.push_back(ep.online_accuracy);
    rep.train_cycles += ep.train_cycles;
  }
  rep.column_updates = r.learning.column_updates;
  rep.column_rmws = r.learning.column_rmws;
  for (const learning::LearningStats& ts : r.tile_learning) {
    rep.tile_column_updates.push_back(ts.column_updates);
  }
  rep.learning_time_us = util::in_microseconds(r.learning.time);
  rep.learning_energy_pj = util::in_picojoules(r.learning.energy);
  rep.train_energy_pj =
      util::in_picojoules(r.train_ledger.total_energy());
  // Weight read-back: diff the live SRAM contents against the deployed
  // baseline, tile by tile.
  const std::vector<nn::SnnLayer>& deployed = deployed_.layers();
  for (std::size_t t = 0; t < sim_.tile_count(); ++t) {
    rep.weight_bits_changed += nn::weight_diff_count(
        sim_.tile(t).export_layer(), deployed[t]);
  }
  rep.energy_per_inf_pj =
      util::in_picojoules(r.final_eval.energy_per_inference);
  const double total_pj =
      util::in_picojoules(r.final_eval.ledger.total_energy());
  rep.learning_energy_share =
      total_pj > 0.0 ? rep.learning_energy_pj / total_pj : 0.0;
  rep.sim_threads = r.final_eval.threads;
  return rep;
}

void OnlineReport::print() const {
  util::Table t("ESAM online-learning report (" + cell + ", " +
                dataset_source + ")");
  t.header({"metric", "value"});
  t.row({"samples / epochs", util::fmt("%zu / %zu", inferences, epochs)});
  if (train_samples != eval_samples || train_samples != inferences) {
    t.row({"held-out split",
           util::fmt("%zu train / %zu eval", train_samples, eval_samples)});
  }
  t.row({"hidden-tile rule", hidden_rule});
  t.row({"input drift", util::fmt("%.0f %% of positions permuted",
                                  100.0 * drift_fraction)});
  t.row({"accuracy (deployed, clean)",
         util::fmt("%.2f %%", 100.0 * accuracy_clean)});
  t.row({"accuracy (after drift)",
         util::fmt("%.2f %%", 100.0 * accuracy_drifted)});
  for (std::size_t e = 0; e < epoch_eval_accuracy.size(); ++e) {
    t.row({util::fmt("accuracy after epoch %zu", e + 1),
           util::fmt("%.2f %% (online %.2f %%)",
                     100.0 * epoch_eval_accuracy[e],
                     100.0 * epoch_online_accuracy[e])});
  }
  t.row({"update interval (k)", util::fmt("%zu", update_interval)});
  t.row({"column updates",
         util::fmt("%llu staged, %llu RMWs",
                   static_cast<unsigned long long>(column_updates),
                   static_cast<unsigned long long>(column_rmws))});
  for (std::size_t i = 0; i < tile_column_updates.size(); ++i) {
    const bool output = i + 1 == tile_column_updates.size();
    t.row({util::fmt("  tile %zu (%s)", i, output ? "output" : "hidden"),
           util::fmt("%llu updates", static_cast<unsigned long long>(
                                         tile_column_updates[i]))});
  }
  t.row({"learning time", util::fmt("%.2f us", learning_time_us)});
  t.row({"learning energy", util::fmt("%.1f pJ", learning_energy_pj)});
  t.row({"train-phase forwards",
         util::fmt("%llu cycles, %.1f pJ",
                   static_cast<unsigned long long>(train_cycles),
                   train_energy_pj)});
  t.row({"weights changed vs deployed",
         util::fmt("%llu bits",
                   static_cast<unsigned long long>(weight_bits_changed))});
  t.row({"energy / inference (incl. learning)",
         util::fmt("%.0f pJ", energy_per_inf_pj)});
  t.row({"learning share of energy",
         util::fmt("%.1f %%", 100.0 * learning_energy_share)});
  t.row({"simulator", util::fmt("%zu threads", sim_threads)});
  t.print();
}

void SystemReport::print() const {
  util::Table t("ESAM system report (" + cell + ", " + dataset_source + ")");
  t.header({"metric", "value"});
  t.row({"clock", util::fmt("%.0f MHz", clock_mhz)});
  t.row({"throughput", util::fmt("%.1f MInf/s", throughput_minf_per_s)});
  t.row({"energy / inference", util::fmt("%.0f pJ", energy_per_inf_pj)});
  t.row({"power", util::fmt("%.1f mW", power_mw)});
  t.row({"area", util::fmt("%.0f um^2", area_um2)});
  t.row({"accuracy", util::fmt("%.2f %%", accuracy * 100.0)});
  t.row({"avg cycles / inference", util::fmt("%.1f", avg_cycles_per_inf)});
  t.row({"neurons", util::fmt("%zu", neurons)});
  t.row({"synapses", util::fmt("%zu", synapses)});
  t.row({"inferences evaluated", util::fmt("%zu", inferences)});
  t.row({"simulator speed",
         util::fmt("%.0f Inf/s (%zu threads)", sim_inf_per_s, sim_threads)});
  t.print();
}

}  // namespace esam::core
