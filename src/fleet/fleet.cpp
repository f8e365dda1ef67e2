#include "esam/fleet/fleet.hpp"

#include "esam/sram/bitcell.hpp"
#include "esam/util/parallel.hpp"
#include "esam/util/table.hpp"
#include "esam/util/units.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace esam::fleet {

Distribution summarize(std::vector<double> xs) {
  if (xs.empty()) {
    throw std::invalid_argument("fleet::summarize: empty sample");
  }
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / n;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  Distribution d;
  d.min = xs.front();
  d.p50 = xs[xs.size() / 2];
  d.p997 = xs[static_cast<std::size_t>(0.997 * (n - 1.0))];
  d.mean = mean;
  d.sigma = std::sqrt(var / n);
  return d;
}

FleetSimulator::FleetSimulator(const nn::SnnNetwork& snn,
                               const data::PreparedDataset& test,
                               const tech::TechnologyParams& nominal,
                               FleetConfig cfg)
    : test_(&test),
      cfg_(cfg),
      factory_(snn, nominal, cfg.hw, cfg.device) {
  if (cfg_.devices == 0) {
    throw std::invalid_argument("FleetSimulator: devices must be >= 1");
  }
  if (test.size() == 0) {
    throw std::invalid_argument("FleetSimulator: empty test stream");
  }
}

DeviceReport FleetSimulator::run_device(std::size_t device_id) const {
  const std::unique_ptr<FleetDevice> dev = factory_.make_device(device_id);
  DeviceReport r;
  r.id = device_id;
  r.seeds = dev->seeds();
  r.variation = dev->variation();
  r.fault_cells = dev->fault_cells();
  r.timing = dev->timing();
  r.leakage_mw = util::in_milliwatts(dev->simulator().total_leakage());

  // Shard: a contiguous wrap-around slice of the shared test stream, so
  // fleets tile the whole stream instead of replaying one prefix. Requests
  // beyond the dataset clamp to its size (a die never sees a sample twice).
  const std::size_t total = test_->size();
  const std::size_t count = cfg_.shard_inferences == 0
                                ? total
                                : std::min(cfg_.shard_inferences, total);
  const std::size_t start = (device_id * count) % total;
  std::vector<util::BitVec> inputs;
  std::vector<std::uint8_t> labels;
  inputs.reserve(count);
  labels.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t idx = (start + k) % total;
    inputs.push_back(test_->spikes[idx]);
    labels.push_back(test_->labels[idx]);
  }
  r.inferences = count;

  arch::SystemSimulator& sim = dev->simulator();
  const arch::RunConfig serial{};  // single stream; determinism by default

  // Phase 1: factory-fresh accuracy (faults and corner already in).
  r.accuracy_clean = sim.run_batched(inputs, &labels, serial).accuracy;

  // Phase 2: the deployment environment drifts.
  const std::vector<util::BitVec> drifted = dev->drift().apply_all(inputs);

  // Phase 3: in-field adaptation through the per-tile rule engine (or a
  // frozen-weights evaluation when adaptation is disabled).
  if (cfg_.adapt_epochs == 0) {
    const arch::RunResult d = sim.run_batched(drifted, &labels, serial);
    r.accuracy_drifted = d.accuracy;
    r.accuracy_final = d.accuracy;
    r.energy_per_inf_pj = util::in_picojoules(d.energy_per_inference);
  } else {
    arch::OnlineTrainConfig tc;
    tc.epochs = cfg_.adapt_epochs;
    tc.update_interval = cfg_.update_interval;
    tc.trainer = cfg_.trainer;
    tc.trainer.stdp.seed = dev->seeds().learning;
    const arch::OnlineRunResult o = sim.run_online(drifted, labels, tc);
    r.accuracy_drifted = o.initial_accuracy;
    r.accuracy_final = o.epochs.back().eval_accuracy;
    r.energy_per_inf_pj =
        util::in_picojoules(o.final_eval.energy_per_inference);
    r.column_updates = o.learning.column_updates;
  }
  r.functional = r.accuracy_final >= cfg_.accuracy_floor;
  return r;
}

FleetReport FleetSimulator::run() const {
  const std::size_t n = cfg_.devices;
  std::vector<DeviceReport> reports(n);

  // Each device writes only its pre-sized slot, so the merged vector is
  // independent of which worker ran which die.
  util::parallel_for(n, cfg_.workers, [&](std::size_t, std::size_t id) {
    reports[id] = run_device(id);
  });

  FleetReport rep;
  rep.devices = n;
  rep.cell = std::string(sram::to_string(cfg_.hw.cell));
  rep.accuracy_floor = cfg_.accuracy_floor;
  std::vector<double> clean, drifted, fin, energy, read_ns, leak, faults;
  std::size_t fits = 0, functional = 0;
  for (const DeviceReport& d : reports) {
    clean.push_back(d.accuracy_clean);
    drifted.push_back(d.accuracy_drifted);
    fin.push_back(d.accuracy_final);
    energy.push_back(d.energy_per_inf_pj);
    read_ns.push_back(d.timing.read_path_ns);
    leak.push_back(d.leakage_mw);
    faults.push_back(static_cast<double>(d.fault_cells));
    fits += d.timing.fits ? 1 : 0;
    functional += d.functional ? 1 : 0;
  }
  rep.timing_yield = static_cast<double>(fits) / static_cast<double>(n);
  rep.functional_yield =
      static_cast<double>(functional) / static_cast<double>(n);
  rep.accuracy_clean = summarize(std::move(clean));
  rep.accuracy_drifted = summarize(std::move(drifted));
  rep.accuracy_final = summarize(std::move(fin));
  rep.energy_per_inf_pj = summarize(std::move(energy));
  rep.read_path_ns = summarize(std::move(read_ns));
  rep.leakage_mw = summarize(std::move(leak));
  rep.fault_cells = summarize(std::move(faults));
  rep.per_device = std::move(reports);
  return rep;
}

void FleetReport::print() const {
  util::Table table(util::fmt("ESAM fleet report: %zu dies, %s cell",
                              devices, cell.c_str()));
  table.header({"metric", "min", "p50", "p99.7", "mean"});
  const auto row = [&table](const char* name, const Distribution& d,
                            const char* unit) {
    table.row({name, util::fmt("%.3f %s", d.min, unit),
               util::fmt("%.3f", d.p50), util::fmt("%.3f", d.p997),
               util::fmt("%.3f", d.mean)});
  };
  row("accuracy, factory-fresh [%]",
      {accuracy_clean.min * 100.0, accuracy_clean.p50 * 100.0,
       accuracy_clean.p997 * 100.0, accuracy_clean.mean * 100.0,
       accuracy_clean.sigma * 100.0},
      "%");
  row("accuracy, after drift [%]",
      {accuracy_drifted.min * 100.0, accuracy_drifted.p50 * 100.0,
       accuracy_drifted.p997 * 100.0, accuracy_drifted.mean * 100.0,
       accuracy_drifted.sigma * 100.0},
      "%");
  row("accuracy, after adaptation [%]",
      {accuracy_final.min * 100.0, accuracy_final.p50 * 100.0,
       accuracy_final.p997 * 100.0, accuracy_final.mean * 100.0,
       accuracy_final.sigma * 100.0},
      "%");
  row("energy per inference [pJ]", energy_per_inf_pj, "pJ");
  row("SRAM read path [ns]", read_path_ns, "ns");
  row("system leakage [mW]", leakage_mw, "mW");
  row("stuck-at cells per die", fault_cells, "");
  table.note(util::fmt(
      "timing yield %.1f%% (read path + neuron stage vs the Table 2 clock, "
      "3%% jitter margin); functional yield %.1f%% (final accuracy >= "
      "%.0f%%)",
      100.0 * timing_yield, 100.0 * functional_yield,
      100.0 * accuracy_floor));
  std::string bad;
  for (const DeviceReport& d : per_device) {
    if (d.functional) continue;
    if (!bad.empty()) bad += ", ";
    if (bad.size() > 48) {
      bad += "...";
      break;
    }
    bad += util::fmt("%zu", d.id);
  }
  if (!bad.empty()) {
    table.note(util::fmt("dies below the accuracy floor: %s", bad.c_str()));
  }
  table.print();
}

}  // namespace esam::fleet
