#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "esam/tech/technology.hpp"
#include "esam/util/simd.hpp"
#include "esam/util/units.hpp"

namespace perfbench {

namespace en = esam::nn;
namespace es = esam::serve;
namespace ef = esam::fleet;
using esam::util::BitVec;

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

double since_start_s(Clock::time_point t) {
  return seconds_between(kProcessStart, t);
}

/// Fields of one served request the collector keeps for the trace.
struct RequestSpan {
  double start_s;
  double end_s;
  std::uint64_t id;
};

/// Record every 8th request as a span: enough to see queueing in the span
/// dump without writing 100k records.
constexpr std::uint64_t kRequestSpanStride = 8;

void fold_stats(const es::ServerStats& before, const es::ServerStats& after,
                ServePhase& ph) {
  ph.served = after.requests_served - before.requests_served;
  ph.batches = after.batches_dispatched - before.batches_dispatched;
  ph.full_batches = after.full_dispatches - before.full_dispatches;
}

/// Judges one response against the offline reference and the label.
/// `sent` and `done` are the submit and response times.
void judge(const es::InferenceResult& r, std::size_t idx,
           Clock::time_point sent, Clock::time_point done,
           const esam::data::PreparedDataset& test,
           const std::vector<std::size_t>& reference, ServePhase& ph) {
  ++ph.succeeded;
  if (r.prediction != reference[idx]) ++ph.mismatched;
  if (r.prediction == test.labels[idx]) ++ph.correct;
  ph.queue_wait_us.push_back(r.queue_wait_us);
  ph.service_us.push_back(us_between(sent, done) - r.queue_wait_us);
}

struct InFlight {
  std::future<es::InferenceResult> fut;
  Clock::time_point due;
  Clock::time_point sent;
  std::size_t idx = 0;
};

/// Open loop: one generator (this thread) sends Poisson arrivals at `rate`,
/// sleeping until each due time; one collector thread blocks on the
/// responses in submission order. Latency runs from the due time, so a
/// late generator or a stalled server both show.
ServePhase open_loop(es::InferenceServer& server,
                     const esam::data::PreparedDataset& test,
                     const std::vector<std::size_t>& reference, double rate,
                     double seconds, std::uint64_t seed, std::size_t& next,
                     std::vector<RequestSpan>& spans) {
  ServePhase ph;
  ph.rate_rps = rate;
  esam::util::Rng rng(seed);
  std::vector<double> offsets;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  ph.latency_us.reserve(offsets.size());
  ph.queue_wait_us.reserve(offsets.size());
  ph.late_us.reserve(offsets.size());

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;
  std::uint64_t failed_get = 0;

  const es::ServerStats before = server.stats();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      try {
        const es::InferenceResult r = f.fut.get();
        const Clock::time_point t = Clock::now();
        ph.latency_us.push_back(us_between(f.due, t));
        ph.done_s.push_back(seconds_between(start, t));
        judge(r, f.idx, f.sent, t, test, reference, ph);
        if (r.request_id % kRequestSpanStride == 0) {
          spans.push_back({since_start_s(f.due), since_start_s(t),
                           r.request_id});
        }
      } catch (const std::exception&) {
        ++failed_get;
      }
    }
  });

  const auto finish = [&] {
    {
      const std::lock_guard<std::mutex> lk(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (const double off : offsets) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(off));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      InFlight f;
      f.due = due;
      f.idx = next++ % test.size();
      f.sent = Clock::now();
      ++ph.sent;
      try {
        f.fut = server.submit(test.spikes[f.idx]);
      } catch (const std::exception&) {
        ++ph.failed;
        continue;
      }
      ph.late_us.push_back(us_between(due, f.sent));
      {
        const std::lock_guard<std::mutex> lk(mu);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  ph.failed += failed_get;
  ph.seconds = seconds_since(start);
  fold_stats(before, server.stats(), ph);
  return ph;
}

/// Per-window groups of a phase's latencies, by response time; only whole
/// windows inside the phase count.
std::vector<std::vector<double>> windows(const ServePhase& ph,
                                         double window_s) {
  const auto n = static_cast<std::size_t>(ph.seconds / window_s);
  std::vector<std::vector<double>> w(n);
  for (std::size_t i = 0; i < ph.done_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(ph.done_s[i] / window_s);
    if (k < n) w[k].push_back(ph.latency_us[i]);
  }
  return w;
}

/// Closed saturating burst: `window` requests stay outstanding until
/// `requests` have been sent, so the server queue never empties; the
/// burst's rate is completions per second.
ServePhase saturate(es::InferenceServer& server,
                    const esam::data::PreparedDataset& test,
                    const std::vector<std::size_t>& reference,
                    std::size_t window, std::size_t requests,
                    std::size_t& next, std::vector<RequestSpan>& spans) {
  ServePhase ph;
  const es::ServerStats before = server.stats();
  std::deque<InFlight> queue;
  const Clock::time_point start = Clock::now();
  const auto collect = [&] {
    InFlight f = std::move(queue.front());
    queue.pop_front();
    try {
      const es::InferenceResult r = f.fut.get();
      const Clock::time_point t = Clock::now();
      ph.latency_us.push_back(us_between(f.sent, t));
      ph.done_s.push_back(seconds_between(start, t));
      judge(r, f.idx, f.sent, t, test, reference, ph);
      if (r.request_id % kRequestSpanStride == 0) {
        spans.push_back({since_start_s(f.sent), since_start_s(t),
                         r.request_id});
      }
    } catch (const std::exception&) {
      ++ph.failed;
    }
  };
  while (ph.sent < requests) {
    while (queue.size() < window && ph.sent < requests) {
      InFlight f;
      f.idx = next++ % test.size();
      f.sent = f.due = Clock::now();
      ++ph.sent;
      try {
        f.fut = server.submit(test.spikes[f.idx]);
      } catch (const std::exception&) {
        ++ph.failed;
        continue;
      }
      queue.push_back(std::move(f));
    }
    if (!queue.empty()) collect();
  }
  while (!queue.empty()) collect();
  ph.seconds = seconds_since(start);
  ph.rate_rps = static_cast<double>(ph.succeeded) / ph.seconds;
  fold_stats(before, server.stats(), ph);
  return ph;
}

void add_request_spans(Tracer* tracer, const std::vector<RequestSpan>& spans) {
  if (tracer == nullptr) return;
  for (const RequestSpan& s : spans) {
    tracer->add("request", "serve", s.start_s, s.end_s, s.id);
  }
}

void silent_log(const std::string&, void*) {}

double ms(double s) { return s * 1e3; }

}  // namespace

double best_window_p50_us(const ServePhase& ph) {
  double best = median(ph.latency_us);
  for (const std::vector<double>& w : windows(ph, kWindowS)) {
    if (!w.empty()) best = std::min(best, median(w));
  }
  return best;
}

double best_window_rate(const ServePhase& ph) {
  // One collector takes the responses in turn, so done_s is sorted.
  double best = ph.rate_rps;
  const std::vector<double>& t = ph.done_s;
  for (std::size_t i = 0; i + kRateWindow < t.size(); ++i) {
    const double span = t[i + kRateWindow] - t[i];
    if (span > 0.0) best = std::max(best, kRateWindow / span);
  }
  return best;
}

std::vector<const ServePhase*> ServeRun::phases() const {
  std::vector<const ServePhase*> out{&warmup, &at10k, &at20k, &at40k};
  for (const ServePhase& ph : saturated) out.push_back(&ph);
  return out;
}

std::uint64_t ServeRun::saturated_requests() const {
  std::uint64_t n = 0;
  for (const ServePhase& ph : saturated) n += ph.succeeded;
  return n;
}

double ServeRun::capacity_rps() const {
  double best = 0.0;
  for (const ServePhase& ph : saturated) {
    best = std::max(best, best_window_rate(ph));
  }
  return best;
}

en::BnnNetwork train_bnn(const esam::data::PreparedDataset& train,
                         std::size_t epochs, std::uint64_t seed) {
  en::TrainConfig tc;
  tc.epochs = epochs;
  tc.seed = seed;
  esam::util::Rng rng(tc.seed);
  en::BnnNetwork net(paper_shape(), rng);
  en::BnnTrainer trainer(net, tc);
  trainer.fit(train.bipolar, train.labels);
  return net;
}

std::vector<std::size_t> offline_predictions(
    const en::SnnNetwork& snn, const std::vector<BitVec>& inputs) {
  std::vector<std::size_t> out;
  out.reserve(inputs.size());
  for (const BitVec& x : inputs) out.push_back(snn.predict(x));
  return out;
}

es::ServerConfig serve_config() {
  es::ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 16;
  cfg.max_delay_us = 200.0;
  cfg.log_sink = &silent_log;
  return cfg;
}

ServeRun run_serve_phases(es::InferenceServer& server,
                          const esam::data::PreparedDataset& test,
                          const std::vector<std::size_t>& reference,
                          double phase_s, std::uint64_t seed,
                          Tracer* tracer) {
  ServeRun run;
  std::size_t next = 0;
  std::vector<RequestSpan> spans;
  // Warm-up: first batches pay page faults and pipeline clones.
  run.warmup = open_loop(server, test, reference, 10e3, 0.1,
                         derive_seed(seed, kArrivalTag), next, spans);
  const auto phase = [&](const char* name, double rate, double secs,
                         std::uint64_t tag) {
    const Span s(tracer, name, "serve");
    spans.clear();
    ServePhase ph = open_loop(server, test, reference, rate, secs,
                              derive_seed(seed, kArrivalTag + tag), next,
                              spans);
    add_request_spans(tracer, spans);
    return ph;
  };
  const auto bursts = [&] {
    for (std::size_t b = 0; b < kBurstsPerGap; ++b) {
      const Span s(tracer, "serve.saturate", "serve");
      spans.clear();
      run.saturated.push_back(saturate(server, test, reference, 64,
                                       kBurstRequests, next, spans));
      add_request_spans(tracer, spans);
    }
  };
  bursts();
  run.at10k = phase("serve.open_loop_10k", 10e3, phase_s / 2, 1);
  bursts();
  run.at20k = phase("serve.open_loop_20k", 20e3, phase_s, 2);
  bursts();
  run.at40k = phase("serve.open_loop_40k", 40e3, phase_s / 4, 3);
  bursts();
  return run;
}

void check_serve(const ServeRun& run, Report& report) {
  for (const ServePhase* ph : run.phases()) {
    const std::uint64_t unanswered = ph->sent - ph->succeeded - ph->failed;
    report.checks(ph->sent, ph->failed + ph->mismatched + unanswered,
                  "served prediction == offline SnnNetwork::predict, every "
                  "accepted request answered");
  }
}

void report_serve_layers(const ServeRun& run, Report& report) {
  const ServePhase& p = run.at20k;
  report.metric("serve.p50_latency_us", median(p.latency_us), "us");
  report.metric("serve.p99_latency_us", percentile(p.latency_us, 99), "us");
  report.metric("serve.queue_wait_us_p50", median(p.queue_wait_us), "us");
  report.metric("serve.queue_wait_us_p99", percentile(p.queue_wait_us, 99),
                "us");
  report.metric("serve.service_us_p50", median(p.service_us), "us");
  report.metric("serve.batch_size_mean",
                p.batches ? static_cast<double>(p.served) /
                                static_cast<double>(p.batches)
                          : 0.0,
                "requests");
  report.metric("serve.full_dispatch_frac",
                p.batches ? static_cast<double>(p.full_batches) /
                                static_cast<double>(p.batches)
                          : 0.0,
                "fraction");
  report.metric("serve.p99_us_at_10k", percentile(run.at10k.latency_us, 99),
                "us");
  report.metric("serve.p99_us_at_40k", percentile(run.at40k.latency_us, 99),
                "us");
  report.metric("serve.gen_late_us_p99", percentile(p.late_us, 99), "us");
  report.metric("serve.capacity_rps", run.capacity_rps(), "req/s");
  std::uint64_t sent = 0, ok = 0, failed = 0;
  for (const ServePhase* ph : run.phases()) {
    sent += ph->sent;
    ok += ph->succeeded;
    failed += ph->failed;
  }
  report.metric("serve.sent", static_cast<double>(sent), "count");
  report.metric("serve.succeeded", static_cast<double>(ok), "count");
  report.metric("serve.failed", static_cast<double>(failed), "count");
}

ef::FleetConfig fleet_config(std::uint64_t seed, std::size_t devices,
                             std::size_t shard, std::size_t workers) {
  ef::FleetConfig fc;
  fc.devices = devices;
  fc.workers = workers;
  fc.shard_inferences = shard;
  fc.adapt_epochs = 1;
  fc.update_interval = 4;
  fc.device.defect_rate = 2e-3;
  fc.device.drift_fraction = 0.25;
  fc.device.seed = derive_seed(seed, kFleetTag);
  return fc;
}

std::uint64_t fleet_mismatches(const ef::FleetReport& a,
                               const ef::FleetReport& b) {
  std::uint64_t bad = 0;
  const auto diff = [&bad](auto x, auto y) { bad += x == y ? 0 : 1; };
  if (a.per_device.size() != b.per_device.size()) return 1;
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    const ef::DeviceReport& x = a.per_device[i];
    const ef::DeviceReport& y = b.per_device[i];
    diff(x.id, y.id);
    diff(x.seeds.variation, y.seeds.variation);
    diff(x.seeds.faults, y.seeds.faults);
    diff(x.seeds.drift, y.seeds.drift);
    diff(x.seeds.learning, y.seeds.learning);
    diff(x.variation.device_res_mult, y.variation.device_res_mult);
    diff(x.variation.wire_res_mult, y.variation.wire_res_mult);
    diff(x.variation.vth_shift_mv, y.variation.vth_shift_mv);
    diff(x.variation.leakage_mult, y.variation.leakage_mult);
    diff(x.fault_cells, y.fault_cells);
    diff(x.timing.read_path_ns, y.timing.read_path_ns);
    diff(x.timing.neuron_ns, y.timing.neuron_ns);
    diff(x.timing.stage_budget_ns, y.timing.stage_budget_ns);
    diff(x.timing.fits, y.timing.fits);
    diff(x.inferences, y.inferences);
    diff(x.accuracy_clean, y.accuracy_clean);
    diff(x.accuracy_drifted, y.accuracy_drifted);
    diff(x.accuracy_final, y.accuracy_final);
    diff(x.energy_per_inf_pj, y.energy_per_inf_pj);
    diff(x.leakage_mw, y.leakage_mw);
    diff(x.column_updates, y.column_updates);
    diff(x.functional, y.functional);
  }
  diff(a.devices, b.devices);
  diff(a.cell, b.cell);
  diff(a.timing_yield, b.timing_yield);
  diff(a.functional_yield, b.functional_yield);
  diff(a.accuracy_floor, b.accuracy_floor);
  for (const auto m : {&ef::FleetReport::accuracy_clean,
                       &ef::FleetReport::accuracy_drifted,
                       &ef::FleetReport::accuracy_final,
                       &ef::FleetReport::energy_per_inf_pj,
                       &ef::FleetReport::read_path_ns,
                       &ef::FleetReport::leakage_mw,
                       &ef::FleetReport::fault_cells}) {
    const ef::Distribution& x = a.*m;
    const ef::Distribution& y = b.*m;
    diff(x.min, y.min);
    diff(x.p50, y.p50);
    diff(x.p997, y.p997);
    diff(x.mean, y.mean);
    diff(x.sigma, y.sigma);
  }
  return bad;
}

namespace {

/// Probe sizes: dies whose fleet parts are timed apart, inferences through
/// the arch engines, and the 20k phase of the probe's own serve run.
constexpr std::size_t kFleetPartDies = 4;
constexpr std::size_t kArchInferences = 500;
constexpr double kProbeServePhaseS = 0.6;

void probe_nn_io(const ProbeInputs& in, const Args& args, Report& report,
                 Tracer& tr) {
  const esam::data::PreparedDataset& test = *in.test;
  const double n = static_cast<double>(test.size());
  {
    const Span s(&tr, "data::load_default_split", "data");
    const Clock::time_point t0 = Clock::now();
    const esam::data::TrainTestSplit split = esam::data::load_default_split(
        in.synth_train, in.synth_test, in.data_seed);
    report.metric("data.synth_s", seconds_since(t0), "s");
    report.check(split.test.labels == test.labels &&
                     split.test.spikes == test.spikes,
                 "same seed synthesises the same test set");
  }

  report.metric("nn.train_s", in.train_s, "s");
  report.metric("nn.train_samples_per_s",
                static_cast<double>(in.train_sample_epochs) / in.train_s,
                "samples/s");

  double bnn_acc = 0.0;
  {
    const Span s(&tr, "BnnNetwork::accuracy", "nn");
    const Clock::time_point t0 = Clock::now();
    bnn_acc = in.bnn->accuracy(test.bipolar, test.labels);
    report.metric("nn.bnn_score_us", seconds_since(t0) * 1e6 / n, "us");
  }
  {
    const Span s(&tr, "SnnNetwork::accuracy", "nn");
    const Clock::time_point t0 = Clock::now();
    const double snn_acc = in.snn->accuracy(test.spikes, test.labels);
    report.metric("nn.snn_score_us", seconds_since(t0) * 1e6 / n, "us");
    report.check(snn_acc == bnn_acc, "SnnNetwork accuracy == BnnNetwork");
  }

  const std::string cache = args.out_dir + "/probe_bnn.bin";
  {
    const Span s(&tr, "BnnNetwork::save", "nn");
    report.check(in.bnn->save(cache), "BnnNetwork::save");
  }
  {
    en::BnnNetwork loaded;
    bool ok = false;
    {
      const Span s(&tr, "BnnNetwork::load", "nn");
      const Clock::time_point t0 = Clock::now();
      ok = en::BnnNetwork::load(cache, loaded);
      report.metric("nn.cache_load_ms", ms(seconds_since(t0)), "ms");
    }
    report.check(ok && loaded.shape() == in.bnn->shape(), "BnnNetwork::load");
  }
  std::filesystem::remove(cache);
  {
    en::SnnNetwork converted;
    {
      const Span s(&tr, "SnnNetwork::from_bnn", "nn");
      const Clock::time_point t0 = Clock::now();
      converted = en::SnnNetwork::from_bnn(*in.bnn);
      report.metric("nn.convert_ms", ms(seconds_since(t0)), "ms");
    }
    bool same = converted.layers().size() == in.snn->layers().size();
    for (std::size_t l = 0; same && l < converted.layers().size(); ++l) {
      same = converted.layers()[l].thresholds ==
             in.snn->layers()[l].thresholds;
    }
    report.check(same, "SnnNetwork::from_bnn reproduces the thresholds");
  }

  const std::string path = args.out_dir + "/probe_ckpt.esam";
  const esam::io::Checkpoint ckpt = esam::io::Checkpoint::from_network(*in.snn);
  {
    const Span s(&tr, "Checkpoint::save", "io");
    ckpt.save(path);
  }
  {
    esam::io::Checkpoint loaded;
    {
      const Span s(&tr, "Checkpoint::load", "io");
      const Clock::time_point t0 = Clock::now();
      loaded = esam::io::Checkpoint::load(path);
      report.metric("io.ckpt_load_ms", ms(seconds_since(t0)), "ms");
    }
    report.metric("io.ckpt_bytes",
                  static_cast<double>(std::filesystem::file_size(path)),
                  "bytes");
    report.check(loaded.content_crc() == ckpt.content_crc(),
                 "Checkpoint round trip");
  }
  std::filesystem::remove(path);
}

void probe_arch(const ProbeInputs& in, Report& report, Tracer& tr) {
  const esam::data::PreparedDataset& test = *in.test;
  const std::size_t n = std::min(kArchInferences, test.size());
  const auto end = static_cast<std::ptrdiff_t>(n);
  const std::vector<BitVec> inputs(test.spikes.begin(),
                                   test.spikes.begin() + end);
  const std::vector<std::uint8_t> labels(test.labels.begin(),
                                         test.labels.begin() + end);
  const double dn = static_cast<double>(n);

  const esam::arch::SystemConfig hw{};  // 1RW+4R @ 500 mV
  Clock::time_point t0 = Clock::now();
  std::optional<esam::arch::SystemSimulator> sim;
  {
    const Span s(&tr, "SystemSimulator::SystemSimulator", "arch");
    sim.emplace(esam::tech::imec3nm(), *in.snn, hw);
    report.metric("arch.deploy_ms", ms(seconds_since(t0)), "ms");
  }
  esam::arch::RunResult batched;
  {
    const Span s(&tr, "SystemSimulator::run_batched", "arch");
    t0 = Clock::now();
    batched = sim->run_batched(inputs, &labels, {});
    report.metric("arch.batched_us_per_inf", seconds_since(t0) * 1e6 / dn,
                  "us");
  }
  std::vector<esam::arch::TileStats> before;
  for (std::size_t t = 0; t < sim->tile_count(); ++t) {
    before.push_back(sim->tile(t).stats());
  }
  esam::arch::RunResult lockstep;
  {
    const Span s(&tr, "SystemSimulator::run", "arch");
    t0 = Clock::now();
    lockstep = sim->run(inputs, &labels);
    report.metric("arch.lockstep_us_per_inf", seconds_since(t0) * 1e6 / dn,
                  "us");
  }
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    differ += batched.predictions[i] == lockstep.predictions[i] ? 0 : 1;
  }
  report.checks(n, differ, "run_batched == run predictions");
  report.check(batched.cycles == lockstep.cycles,
               "run_batched == run cycles");

  report.metric("arch.cycles_per_inf", batched.avg_cycles_per_inference,
                "cycles");
  report.metric("arch.modelled_minf_per_s",
                batched.throughput_inf_per_s / 1e6, "MInf/s");
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(esam::util::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<esam::util::EnergyCategory>(c);
    std::string name(esam::util::to_string(cat));
    std::replace(name.begin(), name.end(), '-', '_');
    report.metric("arch.energy." + name + "_pj_per_inf",
                  esam::util::in_picojoules(batched.ledger.energy(cat)) / dn,
                  "pJ");
  }
  for (std::size_t t = 0; t < sim->tile_count(); ++t) {
    const esam::arch::TileStats& st = sim->tile(t).stats();
    const std::string p = "arch.tile" + std::to_string(t);
    report.metric(p + ".busy_cycles",
                  static_cast<double>(st.busy_cycles - before[t].busy_cycles) /
                      dn,
                  "cycles/inf");
    report.metric(p + ".row_reads",
                  static_cast<double>(st.row_reads - before[t].row_reads) / dn,
                  "reads/inf");
  }

  // One Tile at a time, driven through start_inference/step on the spikes
  // that reach it in the reference network.
  std::vector<en::SnnNetwork::Trace> traces;
  traces.reserve(n);
  for (const BitVec& x : inputs) traces.push_back(in.snn->trace(x));
  for (std::size_t t = 0; t < sim->tile_count(); ++t) {
    esam::arch::Tile tile = sim->tile(t);
    esam::util::EnergyLedger ledger;
    tile.attach_ledger(&ledger);
    const bool output = t + 1 == sim->tile_count();
    std::uint64_t bad = 0;
    const Span s(&tr, "Tile::step tile" + std::to_string(t), "arch");
    t0 = Clock::now();
    for (const en::SnnNetwork::Trace& tc : traces) {
      tile.start_inference(tc.spikes[t]);
      while (tile.busy()) tile.step();
      if (output) {
        bad += tile.output_vmem() == tc.output_vmem ? 0 : 1;
        tile.consume_output();
      } else {
        bad += tile.take_output() == tc.spikes[t + 1] ? 0 : 1;
      }
    }
    report.metric("arch.tile" + std::to_string(t) + "_us_per_inf",
                  seconds_since(t0) * 1e6 / dn, "us");
    report.checks(n, bad, "Tile output == SnnNetwork::trace");
  }
}

/// The parts of one die's FleetSimulator run, timed separately on the same
/// dies and the same wrap-around shards: make_device, the clean eval and
/// run_online. Also the learning probe (run_online is the learning commit
/// path).
void probe_fleet_parts(const ProbeInputs& in, Report& report, Tracer& tr) {
  const esam::data::PreparedDataset& test = *in.test;
  const ef::DeviceFactory factory(*in.snn, esam::tech::imec3nm(), in.fleet.hw,
                                  in.fleet.device);
  const std::size_t count = in.fleet.shard_inferences == 0
                                ? test.size()
                                : std::min(in.fleet.shard_inferences,
                                           test.size());
  double make_s = 0.0, eval_s = 0.0, online_s = 0.0;
  esam::learning::LearningStats learned;
  std::uint64_t bad = 0, checked = 0;
  for (std::size_t id = 0; id < kFleetPartDies; ++id) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<ef::FleetDevice> dev;
    {
      const Span s(&tr, "DeviceFactory::make_device", "fleet");
      dev = factory.make_device(id);
    }
    make_s += seconds_since(t0);
    const std::size_t start = (id * count) % test.size();
    std::vector<BitVec> inputs;
    std::vector<std::uint8_t> labels;
    for (std::size_t k = 0; k < count; ++k) {
      inputs.push_back(test.spikes[(start + k) % test.size()]);
      labels.push_back(test.labels[(start + k) % test.size()]);
    }
    esam::arch::SystemSimulator& sim = dev->simulator();
    double clean = 0.0;
    {
      const Span s(&tr, "SystemSimulator::run_batched (die)", "arch");
      t0 = Clock::now();
      clean = sim.run_batched(inputs, &labels, {}).accuracy;
      eval_s += seconds_since(t0);
    }
    const std::vector<BitVec> drifted = dev->drift().apply_all(inputs);
    esam::arch::OnlineTrainConfig tc;
    tc.epochs = in.fleet.adapt_epochs;
    tc.update_interval = in.fleet.update_interval;
    tc.trainer = in.fleet.trainer;
    tc.trainer.stdp.seed = dev->seeds().learning;
    esam::arch::OnlineRunResult o;
    {
      const Span s(&tr, "SystemSimulator::run_online", "learning");
      t0 = Clock::now();
      o = sim.run_online(drifted, labels, tc);
      online_s += seconds_since(t0);
    }
    learned.column_updates += o.learning.column_updates;
    learned.column_rmws += o.learning.column_rmws;
    if (in.fleet_reference != nullptr &&
        id < in.fleet_reference->per_device.size()) {
      const ef::DeviceReport& ref = in.fleet_reference->per_device[id];
      ++checked;
      bad += ref.accuracy_clean == clean &&
                     ref.accuracy_final == o.epochs.back().eval_accuracy &&
                     ref.column_updates == o.learning.column_updates
                 ? 0
                 : 1;
    }
  }
  const double dies = static_cast<double>(kFleetPartDies);
  report.metric("fleet.make_device_ms", ms(make_s) / dies, "ms");
  report.metric("fleet.eval_ms_per_die", ms(eval_s) / dies, "ms");
  report.metric("fleet.online_ms_per_die", ms(online_s) / dies, "ms");
  report.metric("learning.online_us_per_sample",
                online_s * 1e6 /
                    (dies * static_cast<double>(count * in.fleet.adapt_epochs)),
                "us");
  report.metric("learning.column_updates",
                static_cast<double>(learned.column_updates), "count");
  report.metric("learning.column_rmws",
                static_cast<double>(learned.column_rmws), "count");
  report.metric("learning.rmws_per_update",
                learned.column_updates
                    ? static_cast<double>(learned.column_rmws) /
                          static_cast<double>(learned.column_updates)
                    : 0.0,
                "fraction");
  if (in.fleet_reference != nullptr) {
    report.checks(checked, bad,
                  "fleet part probes == FleetSimulator::run per die");
  }
}

}  // namespace

void report_fleet_run(const ef::FleetReport& one, double one_s,
                      const ef::FleetReport& two, double two_s,
                      Report& report) {
  report.checks(one.devices,
                fleet_mismatches(one, two) != 0 ? one.devices
                                                                : 0,
                "fleet report on 2 workers == 1 worker, field by field");
  report.metric("fleet.worker_scaling", one_s / two_s, "ratio");
  report.metric("fleet.dies_per_s", static_cast<double>(two.devices) / two_s,
                "dies/s");
  report.metric("fleet.functional_yield", two.functional_yield, "fraction");
  report.metric("fleet.timing_yield", two.timing_yield, "fraction");
}

void run_probes(const ProbeInputs& in, const Args& args, Report& report,
                Tracer& tr) {
  std::filesystem::create_directories(args.out_dir);
  probe_nn_io(in, args, report, tr);
  probe_arch(in, report, tr);

  ProbeInputs parts = in;
  std::optional<ef::FleetReport> small;
  if (in.fleet_run) {
    // A small fleet of this workload's model on 1 and on 2 workers.
    ef::FleetConfig fc = in.fleet;
    fc.devices = 8;
    fc.workers = 1;
    const Span s(&tr, "FleetSimulator::run", "fleet");
    Clock::time_point t0 = Clock::now();
    const ef::FleetReport one =
        ef::FleetSimulator(*in.snn, *in.test, esam::tech::imec3nm(), fc).run();
    const double one_s = seconds_since(t0);
    fc.workers = 2;
    t0 = Clock::now();
    small =
        ef::FleetSimulator(*in.snn, *in.test, esam::tech::imec3nm(), fc).run();
    report_fleet_run(one, one_s, *small, seconds_since(t0), report);
    parts.fleet_reference = &*small;
  }
  probe_fleet_parts(parts, report, tr);

  if (in.serve) {
    es::InferenceServer server(esam::tech::imec3nm(),
                               esam::arch::SystemConfig{},
                               esam::io::Checkpoint::from_network(*in.snn),
                               serve_config());
    server.start();
    const std::vector<std::size_t> ref =
        offline_predictions(*in.snn, in.test->spikes);
    const ServeRun run = run_serve_phases(server, *in.test, ref,
                                          kProbeServePhaseS, args.seed, &tr);
    server.stop();
    check_serve(run, report);
    report_serve_layers(run, report);
  }
}

void report_trace(const Tracer& tracer, std::size_t main_first,
                  std::size_t main_last, double traced_wall_s,
                  double untraced_wall_s, const Args& args, Report& report) {
  constexpr const char* kLayers[] = {"data", "nn",    "io",   "arch",
                                     "learning", "fleet", "serve"};
  double main_self = 0.0;
  for (const char* layer : kLayers) {
    main_self += tracer.layer_self_s(layer, main_first, main_last);
  }
  report.metric("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
  report.metric("trace.accounted_frac", main_self / traced_wall_s,
                "fraction");
  for (const char* layer : kLayers) {
    report.metric(std::string("self.") + layer + "_s",
                  tracer.layer_self_s(layer), "s");
  }
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  tracer.write_json(path);
  report.context("spans_file", path);
}

void record_context(const Args& args, const std::string& dataset_source,
                    Report& report) {
  report.context("workload", args.workload);
  report.context("seed", std::to_string(args.seed));
  report.context("seconds", std::to_string(args.seconds));
  report.context("trace", args.trace ? "1" : "0");
  report.context("dataset_source", dataset_source);
  report.context("simd_backend", esam::util::simd::active_backend_name());
  report.context("nproc", std::to_string(std::thread::hardware_concurrency()));
}

}  // namespace perfbench
