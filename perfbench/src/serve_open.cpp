#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "esam/tech/technology.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace es = esam::serve;

namespace {

/// The model the server deploys, prepared untimed: a BNN trained on the
/// workload's data, converted and saved as a checkpoint.
struct Prepared {
  esam::data::TrainTestSplit data;
  esam::nn::BnnNetwork bnn;
  esam::nn::SnnNetwork snn;
  std::string ckpt_path;
  std::vector<std::size_t> reference;  ///< offline predictions of the test set
  /// Modelled energy per request when the test set is served in full
  /// batches; independent of host timing, unlike the server's ledger,
  /// whose per-batch clock energy depends on the batch sizes a deadline cut.
  double modelled_pj_per_inf = 0.0;
  double train_s = 0.0;
  std::size_t train_sample_epochs = 0;
};

constexpr std::size_t kTestSize = 2000;

/// The test set through SystemSimulator::run (the server's engine) in
/// chunks of the server's max_batch; checks the predictions on the way.
double full_batch_pj_per_inf(const Prepared& p, Report& report) {
  esam::arch::SystemSimulator sim(esam::tech::imec3nm(), p.snn,
                                  esam::arch::SystemConfig{});
  const std::vector<esam::util::BitVec>& x = p.data.test.spikes;
  const std::size_t batch = serve_config().max_batch;
  double pj = 0.0;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < x.size(); i += batch) {
    const std::vector<esam::util::BitVec> chunk(
        x.begin() + static_cast<std::ptrdiff_t>(i),
        x.begin() + static_cast<std::ptrdiff_t>(std::min(i + batch, x.size())));
    const esam::arch::RunResult r = sim.run(chunk);
    pj += esam::util::in_picojoules(r.ledger.total_energy());
    for (std::size_t k = 0; k < r.predictions.size(); ++k) {
      bad += r.predictions[k] == p.reference[i + k] ? 0 : 1;
    }
  }
  report.checks(x.size(), bad,
                "full-batch SystemSimulator::run == SnnNetwork::predict");
  return pj / static_cast<double>(x.size());
}

Prepared prepare(const Args& args, Tracer* tr, Report& report) {
  Prepared p;
  {
    const Span s(tr, "data::load_default_split", "data");
    p.data.train =
        esam::data::load_default_split(4000, 0,
                                       derive_seed(kModelSeed, kDataTag))
            .train;
    p.data.test = esam::data::load_default_split(
                      0, kTestSize, derive_seed(args.seed, kDataTag))
                      .test;
  }
  const std::size_t epochs = 2;
  {
    const Span s(tr, "BnnTrainer::fit", "nn");
    const Clock::time_point t0 = Clock::now();
    p.bnn = train_bnn(p.data.train, epochs,
                      derive_seed(kModelSeed, kWeightTag));
    p.train_s = seconds_since(t0);
    p.train_sample_epochs = p.data.train.size() * epochs;
  }
  // Free the training split: its heap then absorbs the request backlog of
  // a disturbed 40k req/s phase instead of raising peak RSS.
  p.data.train = {};
  {
    const Span s(tr, "SnnNetwork::from_bnn", "nn");
    p.snn = esam::nn::SnnNetwork::from_bnn(p.bnn);
  }
  p.ckpt_path = args.out_dir + "/serve-" + std::to_string(args.seed) + ".esam";
  {
    const Span s(tr, "Checkpoint::save", "io");
    esam::io::CheckpointMeta meta;
    meta.source = p.data.test.source;
    esam::io::Checkpoint::from_network(p.snn, meta).save(p.ckpt_path);
  }
  p.reference = offline_predictions(p.snn, p.data.test.spikes);
  p.modelled_pj_per_inf = full_batch_pj_per_inf(p, report);
  return p;
}

/// A started server plus the test stream its requests come from.
struct Deployment {
  esam::data::PreparedDataset test;
  std::unique_ptr<es::InferenceServer> server;
};

/// The timed set-up: synthesise the test stream, load the checkpoint,
/// deploy it into the server's pipelines and start the workers.
Deployment set_up(const Args& args, const Prepared& p, Tracer* tr) {
  Deployment d;
  {
    const Span s(tr, "data::load_default_split", "data");
    d.test = esam::data::load_default_split(
                 0, kTestSize, derive_seed(args.seed, kDataTag))
                 .test;
  }
  esam::io::Checkpoint ckpt;
  {
    const Span s(tr, "Checkpoint::load", "io");
    ckpt = esam::io::Checkpoint::load(p.ckpt_path);
  }
  {
    const Span s(tr, "InferenceServer::InferenceServer", "serve");
    d.server = std::make_unique<es::InferenceServer>(
        esam::tech::imec3nm(), esam::arch::SystemConfig{}, std::move(ckpt),
        serve_config());
  }
  {
    const Span s(tr, "InferenceServer::start", "serve");
    d.server->start();
  }
  return d;
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  ServeRun run;
};

/// Set-up plus the four phases; the server stops (drains) afterwards.
Pass serve_pass(const Args& args, const Prepared& p, double phase_s,
                Tracer* tr, Report& report) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  Deployment d = set_up(args, p, tr);
  pass.setup_s = seconds_since(t0);
  report.check(d.test.labels == p.data.test.labels,
               "set-up synthesises the prepared test stream");
  pass.run = run_serve_phases(*d.server, d.test, p.reference, phase_s,
                              args.seed, tr);
  pass.wall_s = seconds_since(t0);
  d.server->stop();
  check_serve(pass.run, report);
  return pass;
}

}  // namespace

void serve_open(const Args& args, Report& report) {
  std::filesystem::create_directories(args.out_dir);
  Tracer tracer;
  Tracer* const tr = args.trace ? &tracer : nullptr;
  const Prepared p = prepare(args, tr, report);
  record_context(args, p.data.test.source, report);

  if (!args.trace) {
    // Set-up is cheap next to the load phases, so it repeats (the median
    // counts); the load phases run once, on a fresh deployment.
    std::vector<double> setup;
    const Clock::time_point start = Clock::now();
    while (another_rep(setup.size(), 5, start, 0.1 * args.seconds)) {
      const Clock::time_point t0 = Clock::now();
      Deployment d = set_up(args, p, nullptr);
      setup.push_back(seconds_since(t0));
      d.server->stop();
    }
    const double phase_s = 0.2 * args.seconds;
    const Pass pass = serve_pass(args, p, phase_s, nullptr, report);
    setup.push_back(pass.setup_s);
    const ServeRun& run = pass.run;
    std::uint64_t correct = 0, answered = 0;
    for (const ServePhase* ph : run.phases()) {
      correct += ph->correct;
      answered += ph->succeeded;
      std::printf("  %6.0f req/s: %llu sent, p50 %.0f us, p99 %.0f us\n",
                  ph->rate_rps, static_cast<unsigned long long>(ph->sent),
                  median(ph->latency_us), percentile(ph->latency_us, 99));
    }
    // The open-loop phases last a fixed time, so wall_s is the work a
    // user would wait for: set-up plus answering every burst's requests,
    // at capacity (the least-disturbed rate; a whole burst is too long to
    // escape the host's interference).
    report.metric("setup_s", median(setup), "s");
    report.metric("wall_s",
                  median(setup) +
                      static_cast<double>(run.saturated_requests()) /
                          run.capacity_rps(),
                  "s");
    report.metric("sim_inf_per_s", run.capacity_rps(), "inf/s");
    // At 10k req/s, not 20k: near capacity queueing multiplies every
    // slowdown of the host, and p50 at 20k read 540-1010 us across runs.
    report.metric("p50_latency_us", best_window_p50_us(run.at10k), "us");
    report.metric("accuracy",
                  static_cast<double>(correct) / static_cast<double>(answered),
                  "fraction");
    report.metric("modelled_pj_per_inf", p.modelled_pj_per_inf, "pJ");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::filesystem::remove(p.ckpt_path);
    return;
  }

  const double phase_s = 2.0;
  const Pass untraced = serve_pass(args, p, phase_s, nullptr, report);
  const std::size_t first = tracer.records().size();
  const Pass traced = serve_pass(args, p, phase_s, &tracer, report);
  const std::size_t last = tracer.records().size();
  report_serve_layers(traced.run, report);

  ProbeInputs in;
  in.bnn = &p.bnn;
  in.snn = &p.snn;
  in.test = &p.data.test;
  in.synth_train = 0;
  in.synth_test = kTestSize;
  in.data_seed = derive_seed(args.seed, kDataTag);
  in.train_s = p.train_s;
  in.train_sample_epochs = p.train_sample_epochs;
  in.fleet = fleet_config(args.seed, 8, 256, 2);
  in.serve = false;
  run_probes(in, args, report, tracer);
  report_trace(tracer, first, last, traced.wall_s, untraced.wall_s, args,
               report);
  std::filesystem::remove(p.ckpt_path);
}

}  // namespace perfbench
