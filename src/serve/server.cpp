#include "esam/serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "esam/util/simd.hpp"
#include "esam/util/table.hpp"

namespace esam::serve {

using Clock = std::chrono::steady_clock;

namespace {

/// Retained queue-wait samples per client (see WaitRecorder): small enough
/// to copy at every stats() snapshot, large enough for a stable p99.
constexpr std::size_t kWaitSampleCap = 512;

/// Percentile of `samples` (copied by value: nth_element reorders) by the
/// nearest-rank method on the decimated sample.
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace

void InferenceServer::WaitRecorder::record(double wait_us) {
  if (seen++ % stride != 0) return;
  if (samples.size() >= kWaitSampleCap) {
    // Deterministic decimation: keep every other retained sample and
    // double the stride going forward -- the buffer stays a uniform
    // 1-in-stride subsample of the whole history without any RNG.
    for (std::size_t i = 0; 2 * i < samples.size(); ++i) {
      samples[i] = samples[2 * i];
    }
    samples.resize((samples.size() + 1) / 2);
    stride *= 2;
  }
  samples.push_back(wait_us);
}

InferenceServer::InferenceServer(const tech::TechnologyParams& node,
                                 arch::SystemConfig hw, io::Checkpoint ckpt,
                                 ServerConfig cfg)
    : node_(&node), hw_(hw), cfg_(cfg) {
  if (ckpt.network.layers().empty()) {
    throw std::invalid_argument("InferenceServer: empty checkpoint");
  }
  // Rejected here, on the caller's thread: a worker deploying it would
  // throw and end the process.
  arch::check_thresholds_fit(ckpt.network, hw_.neuron, "InferenceServer");
  cfg_.num_workers = std::max<std::size_t>(1, cfg_.num_workers);
  cfg_.max_batch = std::max<std::size_t>(1, cfg_.max_batch);
  cfg_.adapt_batch = std::max<std::size_t>(1, cfg_.adapt_batch);
  cfg_.update_interval = std::max<std::size_t>(1, cfg_.update_interval);
  input_width_ = ckpt.network.layers().front().in_features();
  output_width_ = ckpt.network.layers().back().out_features();
  auto p = std::make_shared<Published>();
  p->ckpt = std::move(ckpt);
  p->version = 1;
  published_ = std::move(p);
}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::start() {
  {
    util::MutexLock lk(queue_mutex_);
    if (accepting_ || !workers_.empty()) {
      throw std::logic_error("InferenceServer::start: already running");
    }
    accepting_ = true;
    stopping_ = false;
  }
  {
    util::MutexLock lk(adapt_mutex_);
    adapt_stop_ = false;
  }
  workers_.reserve(cfg_.num_workers);
  for (std::size_t w = 0; w < cfg_.num_workers; ++w) {
    workers_.emplace_back(&InferenceServer::worker_loop, this);
  }
  if (cfg_.adapt) {
    adapt_thread_ = std::thread(&InferenceServer::adapt_loop, this);
  }
  // Startup banner: which kernel backend the worker pipelines run on is a
  // deployment-level fact operators need in the logs (ESAM_SIMD overrides
  // and scalar fallbacks would otherwise be invisible).
  log_line(util::fmt(
      "esam serve: %zu worker pipeline(s), SIMD backend %s, max batch %zu%s",
      cfg_.num_workers, util::simd::active_backend_name(), cfg_.max_batch,
      cfg_.adapt ? ", background adaptation on" : ""));
}

void InferenceServer::log_line(const std::string& line) const {
  if (cfg_.log_sink != nullptr) {
    cfg_.log_sink(line, cfg_.log_ctx);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void InferenceServer::stop() {
  {
    util::MutexLock lk(queue_mutex_);
    if (workers_.empty() && !accepting_) return;  // never started / stopped
    accepting_ = false;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // Workers have drained the queue; now flush the adaptation engine (it
  // trains on anything still buffered and publishes one last checkpoint).
  {
    util::MutexLock lk(adapt_mutex_);
    adapt_stop_ = true;
  }
  adapt_cv_.notify_all();
  if (adapt_thread_.joinable()) adapt_thread_.join();
  util::MutexLock lk(queue_mutex_);
  stopping_ = false;
}

bool InferenceServer::running() const {
  util::MutexLock lk(queue_mutex_);
  return accepting_;
}

std::future<InferenceResult> InferenceServer::submit(
    util::BitVec input, std::uint64_t client_id,
    std::optional<std::uint8_t> label) {
  if (input.size() != input_width_) {
    throw std::invalid_argument(
        "InferenceServer::submit: input width " +
        std::to_string(input.size()) + " does not match the deployed model (" +
        std::to_string(input_width_) + ")");
  }
  // Checked here, on the client's thread: an out-of-range label reaching the
  // adaptation thread would escape it and terminate the process.
  if (label.has_value() && *label >= output_width_) {
    throw std::invalid_argument(
        "InferenceServer::submit: label " + std::to_string(*label) +
        " is not an output class (model has " +
        std::to_string(output_width_) + ")");
  }
  Request req;
  req.input = std::move(input);
  req.label = label;
  req.client = client_id;
  req.enqueued = Clock::now();
  std::future<InferenceResult> fut = req.promise.get_future();
  {
    util::MutexLock lk(queue_mutex_);
    if (!accepting_) {
      throw std::logic_error(
          "InferenceServer::submit: server is not accepting requests");
    }
    req.id = next_request_id_++;
    queue_.push_back(std::move(req));
  }
  queue_cv_.notify_all();
  return fut;
}

std::shared_ptr<const InferenceServer::Published>
InferenceServer::snapshot_model() const {
  util::MutexLock lk(model_mutex_);
  return published_;
}

void InferenceServer::publish(io::Checkpoint ckpt) {
  // Shape discipline: a published checkpoint must fit the same hardware
  // every worker pipeline was built for.
  const auto current = snapshot_model();
  if (ckpt.network.shape() != current->ckpt.network.shape()) {
    throw std::invalid_argument(
        "InferenceServer::publish: checkpoint shape does not match the "
        "deployed model");
  }
  arch::check_thresholds_fit(ckpt.network, hw_.neuron,
                             "InferenceServer::publish");
  auto p = std::make_shared<Published>();
  p->ckpt = std::move(ckpt);
  {
    util::MutexLock lk(model_mutex_);
    p->version = version_.load(std::memory_order_relaxed) + 1;
    const std::uint64_t new_version = p->version;
    published_ = std::move(p);
    version_.store(new_version, std::memory_order_release);
  }
  util::MutexLock lk(stats_mutex_);
  ++stats_.checkpoints_published;
}

io::Checkpoint InferenceServer::current_checkpoint() const {
  return snapshot_model()->ckpt;
}

std::uint64_t InferenceServer::model_version() const {
  return version_.load(std::memory_order_acquire);
}

ServerStats InferenceServer::stats() const {
  util::MutexLock lk(stats_mutex_);
  ServerStats snap = stats_;
  // Percentiles are computed at snapshot time from the bounded recorders
  // (the hot serve path only appends; no sorting under load).
  for (auto& [client, c] : snap.clients) {
    const auto it = queue_waits_.find(client);
    if (it == queue_waits_.end()) continue;
    c.queue_wait_p50_us = percentile(it->second.samples, 0.50);
    c.queue_wait_p99_us = percentile(it->second.samples, 0.99);
  }
  return snap;
}

void InferenceServer::worker_loop() {
  // Each worker owns a full pipeline clone built from the published model;
  // concurrent batches never share mutable hardware state.
  auto model = snapshot_model();
  arch::SystemSimulator sim(*node_, model->ckpt.network, hw_);
  std::uint64_t local_version = model->version;
  model.reset();

  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(
          std::max(0.0, cfg_.max_delay_us)));

  util::UniqueLock lk(queue_mutex_);
  for (;;) {
    // Explicit wait loops (not predicate lambdas) keep the guarded reads
    // inside this function, where -Wthread-safety can see the held lock.
    while (!stopping_ && queue_.empty()) queue_cv_.wait(lk);
    if (queue_.empty()) return;  // empty here implies shutdown: drain done

    // Dynamic batch formation: hold the partial batch until it fills or the
    // oldest request's deadline passes. The shutdown drain takes whatever
    // is queued immediately.
    const auto deadline = queue_.front().enqueued + budget;
    // Loop exits when the batch fills, the queue is stolen by another
    // worker, shutdown begins, or the deadline passes -- a partial batch
    // dispatches in every case.
    while (!stopping_ && !queue_.empty() && queue_.size() < cfg_.max_batch) {
      if (queue_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    if (queue_.empty()) continue;  // another worker raced us to the batch

    const std::size_t take = std::min(cfg_.max_batch, queue_.size());
    std::vector<Request> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    const bool full_batch = take == cfg_.max_batch;

    lk.unlock();
    serve_batch(sim, local_version, batch, full_batch);
    lk.lock();
  }
}

void InferenceServer::serve_batch(arch::SystemSimulator& sim,
                                  std::uint64_t& local_version,
                                  std::vector<Request>& batch,
                                  bool full_batch) {
  // Refresh the pipeline weights at the batch boundary if a new checkpoint
  // was published: a batch never mixes two model versions.
  if (local_version != version_.load(std::memory_order_acquire)) {
    const auto model = snapshot_model();
    sim.import_network(model->ckpt.network);
    local_version = model->version;
  }

  std::vector<util::BitVec> inputs;
  inputs.reserve(batch.size());
  for (const Request& r : batch) inputs.push_back(r.input);
  const auto dispatched = Clock::now();
  const arch::RunResult run = sim.run(inputs);

  // Labeled requests feed the background adaptation engine.
  if (cfg_.adapt) {
    bool any = false;
    {
      util::MutexLock alk(adapt_mutex_);
      for (Request& r : batch) {
        if (r.label.has_value()) {
          adapt_buffer_.emplace_back(std::move(r.input), *r.label);
          any = true;
        }
      }
    }
    if (any) adapt_cv_.notify_all();
  }

  const double batch_latency_ns = util::in_nanoseconds(run.elapsed);
  const double share_pj = util::in_picojoules(run.ledger.total_energy()) /
                          static_cast<double>(batch.size());
  std::vector<InferenceResult> results(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    InferenceResult& res = results[i];
    res.request_id = batch[i].id;
    res.prediction = run.predictions[i];
    res.model_version = local_version;
    res.batch_size = batch.size();
    res.queue_wait_us = std::chrono::duration<double, std::micro>(
                            dispatched - batch[i].enqueued)
                            .count();
    res.modeled_latency_ns = batch_latency_ns;
    res.modeled_energy_pj = share_pj;
  }

  {
    util::MutexLock slk(stats_mutex_);
    stats_.requests_served += batch.size();
    ++stats_.batches_dispatched;
    if (full_batch) {
      ++stats_.full_dispatches;
    } else {
      ++stats_.deadline_dispatches;
    }
    stats_.ledger += run.ledger;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ClientStats& c = stats_.clients[batch[i].client];
      ++c.requests;
      c.modeled_energy_pj += results[i].modeled_energy_pj;
      c.modeled_latency_ns += results[i].modeled_latency_ns;
      c.queue_wait_us += results[i].queue_wait_us;
      queue_waits_[batch[i].client].record(results[i].queue_wait_us);
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(results[i]));
  }
}

void InferenceServer::adapt_loop() {
  // The mutable learning copy: immutable serving weights live in the
  // published checkpoint; this pipeline is the only thing the trainer
  // mutates, and its adapted state reaches the servers only through
  // publish().
  auto model = snapshot_model();
  arch::SystemSimulator learn_sim(*node_, model->ckpt.network, hw_);
  io::CheckpointMeta meta = model->ckpt.meta;
  model.reset();
  learning::OnlineTrainer trainer(learn_sim.tiles(), cfg_.trainer);
  std::vector<util::BitVec> round_inputs;
  std::vector<std::uint8_t> round_labels;

  util::UniqueLock lk(adapt_mutex_);
  for (;;) {
    while (!adapt_stop_ && adapt_buffer_.size() < cfg_.adapt_batch) {
      adapt_cv_.wait(lk);
    }
    if (adapt_buffer_.empty()) {
      if (adapt_stop_) return;
      continue;
    }
    // A round is the oldest adapt_batch samples; the rest stay buffered.
    // On shutdown the remainder is flushed in rounds of at most
    // adapt_batch, so every labeled request contributes to the last
    // published weights.
    const std::size_t take = std::min(cfg_.adapt_batch, adapt_buffer_.size());
    round_inputs.clear();
    round_labels.clear();
    for (std::size_t i = 0; i < take; ++i) {
      round_inputs.push_back(std::move(adapt_buffer_[i].first));
      round_labels.push_back(adapt_buffer_[i].second);
    }
    adapt_buffer_.erase(
        adapt_buffer_.begin(),
        adapt_buffer_.begin() + static_cast<std::ptrdiff_t>(take));
    lk.unlock();

    // One training pass per round: it commits every update_interval samples
    // and flushes the partial tail window, so a commit window never spans a
    // publish and the published weights reflect every sample of the round.
    learn_sim.train_pass(trainer, round_inputs, round_labels,
                         cfg_.update_interval, 1);
    // Lineage: the adapted weights descend from whatever checkpoint serving
    // traffic sees right now, so the published chain stays auditable with
    // `esam checkpoint diff`.
    meta.parent_crc = snapshot_model()->ckpt.content_crc();
    io::Checkpoint ck =
        io::Checkpoint::from_network(learn_sim.export_network(), meta);
    publish(std::move(ck));
    {
      util::MutexLock slk(stats_mutex_);
      stats_.adapt_samples += take;
    }

    lk.lock();
  }
}

}  // namespace esam::serve
