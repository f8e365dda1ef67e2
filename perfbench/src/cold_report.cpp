#include <algorithm>
#include <cstdio>

#include "esam/core/esam.hpp"
#include "esam/sram/bitcell.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ec = esam::core;

namespace {

/// Each sampling sweep times every cell's evaluation as run_batched calls on
/// consecutive chunks of this many test samples (about 0.5 ms each). Chunk
/// times are short enough that many of them land in the host's undisturbed
/// stretches, and the fastest sample of a chunk is then steady (see
/// README.md, "Noise").
constexpr std::size_t kChunk = 10;

/// One repetition (create + a full sweep) or one sampling sweep on an
/// existing model (only the per-cell fields filled).
struct ColdRep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> deploy_s;               ///< EsamSystem, per cell
  std::vector<std::vector<double>> chunk_s;   ///< per cell, per chunk
  std::vector<std::vector<std::size_t>> predictions;  ///< per cell
  bool full = false;                ///< the modelled fields below are set
  double accuracy = 0.0;            ///< 1RW+4R
  double pj_per_inf = 0.0;          ///< 1RW+4R
  double bnn_test_accuracy = 0.0;
};

ec::ModelConfig cold_config(const Args& args) {
  ec::ModelConfig mc;
  mc.shape = paper_shape();
  mc.n_train = 4000;
  mc.n_test = 2000;
  mc.data_seed = derive_seed(args.seed, kDataTag);
  mc.train.epochs = 3;
  mc.train.seed = derive_seed(args.seed, kWeightTag);
  mc.cache_path.clear();  // cold: never read or write a BNN cache
  return mc;
}

/// Deploys every cell. A full sweep evaluates the whole test set in one
/// run_batched call per cell (the user's path; set-up ends at the first
/// deploy, counted from `t0`); a sampling sweep (`chunks` non-null) times
/// one call per chunk instead.
void sweep(const ec::TrainedModel& model, Clock::time_point t0, Tracer* tr,
           const std::vector<std::vector<esam::util::BitVec>>* chunks,
           ColdRep& rep) {
  rep.full = chunks == nullptr;
  rep.bnn_test_accuracy = model.bnn_test_accuracy;
  const esam::data::PreparedDataset& test = model.data.test;
  for (const esam::sram::CellKind cell : esam::sram::kAllCellKinds) {
    const Clock::time_point tc = Clock::now();
    esam::arch::SystemConfig hw;
    hw.cell = cell;
    std::optional<ec::EsamSystem> sys;
    {
      const Span s(tr, "EsamSystem::EsamSystem", "arch");
      sys.emplace(model, hw);
    }
    rep.deploy_s.push_back(seconds_since(tc));
    if (rep.deploy_s.size() == 1) rep.setup_s = seconds_since(t0);
    if (chunks != nullptr) {
      rep.chunk_s.emplace_back();
      rep.predictions.emplace_back();
      for (const std::vector<esam::util::BitVec>& chunk : *chunks) {
        const Clock::time_point te = Clock::now();
        const esam::arch::RunResult r =
            sys->simulator().run_batched(chunk, nullptr, {});
        rep.chunk_s.back().push_back(seconds_since(te));
        rep.predictions.back().insert(rep.predictions.back().end(),
                                      r.predictions.begin(),
                                      r.predictions.end());
      }
      continue;
    }
    esam::arch::RunResult r;
    {
      const Span s(tr, "SystemSimulator::run_batched", "arch");
      r = sys->simulator().run_batched(test.spikes, &test.labels, {});
    }
    const double pj = esam::util::in_picojoules(r.energy_per_inference);
    std::printf("  %-7s %6.1f MInf/s  %5.0f pJ/inf  accuracy %.4f\n",
                std::string(esam::sram::to_string(cell)).c_str(),
                r.throughput_inf_per_s / 1e6, pj, r.accuracy);
    if (cell == esam::sram::CellKind::k1RW4R) {
      rep.accuracy = r.accuracy;
      rep.pj_per_inf = pj;
    }
    rep.predictions.push_back(std::move(r.predictions));
  }
}

ColdRep run_once(const ec::ModelConfig& mc, Clock::time_point t0,
                 Tracer* tr, ec::TrainedModel& model) {
  ColdRep rep;
  {
    const Span s(tr, "TrainedModel::create", "nn");
    model = ec::TrainedModel::create(mc);
  }
  sweep(model, t0, tr, nullptr, rep);
  rep.wall_s = seconds_since(t0);
  return rep;
}

/// Rep 0 against both software references; later reps against rep 0.
void check_rep(const ColdRep& rep, const ColdRep& first,
               const ec::TrainedModel* model, Report& report) {
  if (model != nullptr) {
    const esam::data::PreparedDataset& test = model->data.test;
    std::vector<std::size_t> snn_ref, bnn_ref;
    for (std::size_t i = 0; i < test.size(); ++i) {
      snn_ref.push_back(model->snn.predict(test.spikes[i]));
      bnn_ref.push_back(model->bnn.predict(test.bipolar[i]));
    }
    for (const std::vector<std::size_t>& preds : rep.predictions) {
      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < preds.size(); ++i) {
        bad += preds[i] == snn_ref[i] && preds[i] == bnn_ref[i] ? 0 : 1;
      }
      report.checks(preds.size(), bad,
                    "hardware prediction == SnnNetwork and BnnNetwork");
    }
    report.check(rep.accuracy == rep.bnn_test_accuracy,
                 "1RW+4R accuracy == bnn_test_accuracy");
    return;
  }
  for (std::size_t c = 0; c < rep.predictions.size(); ++c) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < rep.predictions[c].size(); ++i) {
      bad += rep.predictions[c][i] == first.predictions[c][i] ? 0 : 1;
    }
    report.checks(rep.predictions[c].size(), bad,
                  "repetition reproduces the first one");
  }
  if (rep.full) {
    report.check(rep.accuracy == first.accuracy &&
                     rep.pj_per_inf == first.pj_per_inf,
                 "repetition reproduces the modelled metrics");
  }
}

}  // namespace

void cold_report(const Args& args, Report& report) {
  const ec::ModelConfig mc = cold_config(args);

  if (!args.trace) {
    // kReps repetitions of create + full sweep. After each, sampling sweeps
    // on its model fill that repetition's share of the budget, so the chunk
    // samples spread over the whole run.
    constexpr std::size_t kReps = 3;
    const double budget_s = 0.9 * static_cast<double>(args.seconds);
    std::vector<ColdRep> reps;
    std::vector<ColdRep> sweeps;
    std::string source;
    for (std::size_t k = 0; k < kReps; ++k) {
      std::printf("repetition %zu\n", k + 1);
      ec::TrainedModel model;
      reps.push_back(
          run_once(mc, k == 0 ? kProcessStart : Clock::now(), nullptr, model));
      check_rep(reps.back(), reps.front(), k == 0 ? &model : nullptr, report);
      source = model.data.test.source;

      std::vector<std::vector<esam::util::BitVec>> chunks;
      const std::vector<esam::util::BitVec>& x = model.data.test.spikes;
      for (std::size_t i = 0; i < x.size(); i += kChunk) {
        chunks.emplace_back(
            x.begin() + static_cast<std::ptrdiff_t>(i),
            x.begin() + static_cast<std::ptrdiff_t>(std::min(i + kChunk,
                                                             x.size())));
      }
      const double until = budget_s * static_cast<double>(k + 1) / kReps;
      do {
        sweeps.emplace_back();
        sweep(model, Clock::now(), nullptr, &chunks, sweeps.back());
        check_rep(sweeps.back(), reps.front(), nullptr, report);
      } while (seconds_since(kProcessStart) < until);
    }
    record_context(args, source, report);
    std::printf("%zu sampling sweeps\n", sweeps.size());

    // Set-up is the median repetition and wall_s the fastest. The sweep
    // timings take each chunk's and each deploy's fastest sample over the
    // sampling sweeps, because interference on the shared host only adds
    // time (see README.md, "Noise").
    std::vector<double> setup;
    double wall = reps.front().wall_s;
    for (const ColdRep& r : reps) {
      setup.push_back(r.setup_s);
      wall = std::min(wall, r.wall_s);
    }
    std::vector<double> cell_s;  // fastest deploy + evaluate, per cell
    double eval_total = 0.0;
    for (std::size_t c = 0; c < sweeps.front().deploy_s.size(); ++c) {
      double deploy = sweeps.front().deploy_s[c];
      for (const ColdRep& r : sweeps) deploy = std::min(deploy, r.deploy_s[c]);
      double eval = 0.0;
      for (std::size_t i = 0; i < sweeps.front().chunk_s[c].size(); ++i) {
        double best = sweeps.front().chunk_s[c][i];
        for (const ColdRep& r : sweeps) best = std::min(best, r.chunk_s[c][i]);
        eval += best;
      }
      cell_s.push_back(deploy + eval);
      eval_total += eval;
    }
    report.metric("setup_s", median(setup), "s");
    report.metric("wall_s", wall, "s");
    report.metric("sim_inf_per_s",
                  static_cast<double>(mc.n_test * cell_s.size()) / eval_total,
                  "inf/s");
    report.metric("p50_latency_us", median(cell_s) * 1e6, "us");
    report.metric("accuracy", reps.front().accuracy, "fraction");
    report.metric("modelled_pj_per_inf", reps.front().pj_per_inf, "pJ");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: one untraced pass for the overhead baseline, one traced
  // pass, then the probe suite on the traced pass's model.
  ec::TrainedModel model;
  const ColdRep untraced = run_once(mc, Clock::now(), nullptr, model);
  Tracer tracer;
  const std::size_t first = tracer.records().size();
  const ColdRep traced = run_once(mc, Clock::now(), &tracer, model);
  const std::size_t last = tracer.records().size();
  check_rep(traced, traced, &model, report);
  check_rep(untraced, traced, nullptr, report);
  record_context(args, model.data.test.source, report);

  // TrainedModel::create's training, timed apart on the same inputs.
  double train_s = 0.0;
  {
    const Span s(&tracer, "BnnTrainer::fit", "nn");
    const Clock::time_point t0 = Clock::now();
    const esam::nn::BnnNetwork bnn =
        train_bnn(model.data.train, mc.train.epochs, mc.train.seed);
    train_s = seconds_since(t0);
    const esam::nn::SnnNetwork snn = esam::nn::SnnNetwork::from_bnn(bnn);
    bool same = true;
    for (std::size_t l = 0; l < snn.layers().size(); ++l) {
      same = same && snn.layers()[l].thresholds ==
                         model.snn.layers()[l].thresholds;
    }
    report.check(same, "BnnTrainer::fit reproduces TrainedModel::create");
  }

  ProbeInputs in;
  in.bnn = &model.bnn;
  in.snn = &model.snn;
  in.test = &model.data.test;
  in.synth_train = mc.n_train;
  in.synth_test = mc.n_test;
  in.data_seed = mc.data_seed;
  in.train_s = train_s;
  in.train_sample_epochs = mc.n_train * mc.train.epochs;
  in.fleet = fleet_config(args.seed, 8, 256, 2);
  run_probes(in, args, report, tracer);
  report_trace(tracer, first, last, traced.wall_s, untraced.wall_s, args,
               report);
}

}  // namespace perfbench
