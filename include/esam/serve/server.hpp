// Long-running inference service over a deployed checkpoint -- the
// "millions of users" scenario of the ROADMAP made concrete.
//
// An InferenceServer owns a deployed model (an io::Checkpoint) and serves
// concurrent request streams: clients submit() spike vectors from any
// thread, requests enter a mutex/condvar-guarded queue, and worker threads
// form *dynamic batches* -- a batch dispatches when it reaches
// ServerConfig::max_batch requests or when the oldest queued request has
// waited ServerConfig::max_delay_us, whichever comes first. Each worker owns
// a deep-cloned tile pipeline (its own arch::SystemSimulator), so batches
// run concurrently without sharing mutable hardware state, and every
// request's result carries its share of the batch's modelled energy and the
// batch's modelled pipeline latency from the existing EnergyLedger
// machinery, aggregated per client in ServerStats.
//
// Determinism contract: pipelining and batch composition never change what
// an inference computes (the PR-1 engine's core invariant), so a served
// request's prediction is bit-identical to an offline evaluate of the same
// checkpoint on the same input, regardless of worker count, batch cuts or
// arrival interleaving (tested in tests/test_serve.cpp).
//
// Serve-while-adapting: with ServerConfig::adapt enabled, labeled requests
// are also fed to a background adaptation thread that owns a *mutable*
// learning copy of the model (immutable serving weights vs mutable learning
// copy). Each time ServerConfig::adapt_batch labeled samples are buffered,
// it takes exactly the oldest adapt_batch of them as one round, trains on
// the round with one arch::SystemSimulator::train_pass (the same loop as
// offline online training: staged column updates commit every
// ServerConfig::update_interval samples, the partial tail window at the end
// of the round) and atomically publishes the adapted weights as a new
// checkpoint, each stamped with the previously published checkpoint's
// content CRC as its lineage parent (shared_ptr swap + version bump);
// workers refresh their pipelines at the next batch boundary, so a batch
// never mixes two weight versions. stop() drains the queue -- every
// accepted request is answered -- and flushes the remaining labeled samples
// in rounds of at most adapt_batch before the threads join.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/io/checkpoint.hpp"
#include "esam/learning/online_trainer.hpp"
#include "esam/util/sync.hpp"
#include "esam/util/thread_annotations.hpp"

namespace esam::serve {

struct ServerConfig {
  /// Worker threads, each owning a deep-cloned pipeline (min 1).
  std::size_t num_workers = 2;
  /// Dispatch a batch as soon as this many requests are queued (min 1).
  std::size_t max_batch = 16;
  /// Host-side latency budget: a partial batch dispatches once its oldest
  /// request has waited this long (microseconds of wall-clock).
  double max_delay_us = 200.0;
  /// Background adaptation on labeled requests (serve + adapt).
  bool adapt = false;
  /// Labeled samples per adaptation round (the oldest buffered ones; only
  /// the shutdown flush runs a shorter last round); each round ends in an
  /// atomic checkpoint publish.
  std::size_t adapt_batch = 32;
  /// k-step delayed updates for the adaptation engine: staged column
  /// updates commit every k samples (see
  /// arch::OnlineTrainConfig::update_interval). Any partial window is
  /// flushed at the end of each adaptation round, so a published
  /// checkpoint never carries uncommitted staged updates. 1 = immediate
  /// updates.
  std::size_t update_interval = 1;
  /// Learning configuration of the adaptation engine's mutable model copy.
  learning::TrainerConfig trainer{};
  /// Receives one-line operational log messages (the startup banner with
  /// the worker count and active SIMD kernel backend). nullptr routes to
  /// stderr -- same plain pointer + context idiom as nn::TrainConfig's
  /// log_sink, keeping the config trivially copyable.
  void (*log_sink)(const std::string& line, void* ctx) = nullptr;
  void* log_ctx = nullptr;
};

/// What a client gets back for one request.
struct InferenceResult {
  std::uint64_t request_id = 0;
  std::size_t prediction = 0;
  /// Version of the published checkpoint that served this request (1 = the
  /// deployment checkpoint; bumps on every publish()).
  std::uint64_t model_version = 0;
  /// Size of the dynamic batch this request rode in.
  std::size_t batch_size = 0;
  /// Host wall-clock between submit() and dispatch (queueing delay).
  double queue_wait_us = 0.0;
  /// Modelled pipeline latency of the dynamic batch (hardware time).
  double modeled_latency_ns = 0.0;
  /// This request's share of the batch's modelled energy (total/batch).
  double modeled_energy_pj = 0.0;
};

/// Per-client accounting, aggregated over every served request.
struct ClientStats {
  std::uint64_t requests = 0;
  double modeled_energy_pj = 0.0;   ///< summed energy shares
  double modeled_latency_ns = 0.0;  ///< summed modelled batch latencies
  double queue_wait_us = 0.0;       ///< summed host queueing delays
  /// Queue-wait percentiles over this client's served requests, estimated
  /// from a bounded deterministic sample (see InferenceServer::stats()).
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
};

struct ServerStats {
  std::uint64_t requests_served = 0;
  std::uint64_t batches_dispatched = 0;
  /// Batches cut because they reached max_batch...
  std::uint64_t full_dispatches = 0;
  /// ...vs cut by the latency budget or the shutdown drain.
  std::uint64_t deadline_dispatches = 0;
  std::uint64_t checkpoints_published = 0;  ///< beyond the deployment one
  std::uint64_t adapt_samples = 0;          ///< labeled samples trained on
  /// Merged modelled-hardware ledger of every served batch.
  util::EnergyLedger ledger;
  /// Per-client accounting, keyed by the submit() client id.
  std::map<std::uint64_t, ClientStats> clients;
};

class InferenceServer {
 public:
  /// Deploys `ckpt` as model version 1 on the given node/hardware config.
  /// The node must outlive the server. Throws std::invalid_argument on an
  /// empty checkpoint or a threshold that does not fit hw.neuron.vth_bits.
  InferenceServer(const tech::TechnologyParams& node, arch::SystemConfig hw,
                  io::Checkpoint ckpt, ServerConfig cfg = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Spawns the worker pool (and the adaptation thread when cfg.adapt).
  void start() ESAM_EXCLUDES(queue_mutex_, adapt_mutex_);

  /// Clean shutdown: stops accepting, drains the queue (every accepted
  /// request's future is fulfilled), flushes pending adaptation samples,
  /// joins all threads. Idempotent; also invoked by the destructor.
  void stop() ESAM_EXCLUDES(queue_mutex_, adapt_mutex_);

  [[nodiscard]] bool running() const ESAM_EXCLUDES(queue_mutex_);

  /// Enqueues one request; any thread may call this. The future resolves
  /// when a worker serves the request's batch. A label makes the sample
  /// available to the background adaptation engine. Throws
  /// std::invalid_argument on a spike-width mismatch or a label that is not
  /// an output class, and std::logic_error when the server is not accepting
  /// (not started or stopped).
  std::future<InferenceResult> submit(util::BitVec input,
                                      std::uint64_t client_id = 0,
                                      std::optional<std::uint8_t> label = {})
      ESAM_EXCLUDES(queue_mutex_);

  /// Atomically publishes new weights. Throws std::invalid_argument, and
  /// leaves the served model as it was, when the shape differs from the
  /// deployed model's or a threshold does not fit hw.neuron.vth_bits.
  /// Workers pick the new version up at their next batch boundary.
  void publish(io::Checkpoint ckpt)
      ESAM_EXCLUDES(model_mutex_, stats_mutex_);

  /// The latest published checkpoint / its version (1 = deployment).
  [[nodiscard]] io::Checkpoint current_checkpoint() const
      ESAM_EXCLUDES(model_mutex_);
  [[nodiscard]] std::uint64_t model_version() const;

  /// Snapshot of the aggregate + per-client accounting.
  [[nodiscard]] ServerStats stats() const ESAM_EXCLUDES(stats_mutex_);

 private:
  struct Request {
    util::BitVec input;
    std::optional<std::uint8_t> label;
    std::uint64_t id = 0;
    std::uint64_t client = 0;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<InferenceResult> promise;
  };
  /// One immutable published model; workers hold shared_ptr snapshots.
  struct Published {
    io::Checkpoint ckpt;
    std::uint64_t version = 0;
  };
  /// Bounded queue-wait sample for percentile estimation: every stride-th
  /// observed wait is retained; when the buffer fills, every other retained
  /// sample is dropped and the stride doubles. Deterministic (no RNG) per
  /// the repo's reproducibility lint, O(1) amortized, memory-bounded.
  struct WaitRecorder {
    std::vector<double> samples;
    std::uint64_t stride = 1;
    std::uint64_t seen = 0;

    void record(double wait_us);
  };

  /// Routes an operational log line to cfg_.log_sink (stderr by default).
  void log_line(const std::string& line) const;
  void worker_loop()
      ESAM_EXCLUDES(queue_mutex_, model_mutex_, adapt_mutex_, stats_mutex_);
  void adapt_loop()
      ESAM_EXCLUDES(queue_mutex_, model_mutex_, adapt_mutex_, stats_mutex_);
  /// Runs one dynamic batch on a worker's own pipeline, fulfilling every
  /// request's promise and folding the batch into the stats.
  void serve_batch(arch::SystemSimulator& sim, std::uint64_t& local_version,
                   std::vector<Request>& batch, bool full_batch)
      ESAM_EXCLUDES(queue_mutex_, model_mutex_, adapt_mutex_, stats_mutex_);
  [[nodiscard]] std::shared_ptr<const Published> snapshot_model() const
      ESAM_EXCLUDES(model_mutex_);

  const tech::TechnologyParams* node_;
  arch::SystemConfig hw_;
  ServerConfig cfg_;
  std::size_t input_width_ = 0;
  std::size_t output_width_ = 0;

  /// Published-model slot: shared_ptr swapped under model_mutex_; version_
  /// doubles as the lock-free staleness probe for workers.
  mutable util::Mutex model_mutex_;
  std::shared_ptr<const Published> published_ ESAM_GUARDED_BY(model_mutex_);
  std::atomic<std::uint64_t> version_{1};

  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  std::deque<Request> queue_ ESAM_GUARDED_BY(queue_mutex_);
  bool accepting_ ESAM_GUARDED_BY(queue_mutex_) = false;
  bool stopping_ ESAM_GUARDED_BY(queue_mutex_) = false;
  std::uint64_t next_request_id_ ESAM_GUARDED_BY(queue_mutex_) = 1;

  mutable util::Mutex stats_mutex_;
  ServerStats stats_ ESAM_GUARDED_BY(stats_mutex_);
  /// Per-client queue-wait samples backing the p50/p99 in ClientStats.
  std::map<std::uint64_t, WaitRecorder> queue_waits_
      ESAM_GUARDED_BY(stats_mutex_);

  util::Mutex adapt_mutex_;
  util::CondVar adapt_cv_;
  std::vector<std::pair<util::BitVec, std::uint8_t>> adapt_buffer_
      ESAM_GUARDED_BY(adapt_mutex_);
  bool adapt_stop_ ESAM_GUARDED_BY(adapt_mutex_) = false;

  /// Touched only by the start()/stop() thread (never by the workers
  /// themselves), so no lock guards the thread handles.
  std::vector<std::thread> workers_;
  std::thread adapt_thread_;
};

}  // namespace esam::serve
