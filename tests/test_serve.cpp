// Tests for serve::InferenceServer: a served stream must be bit-identical
// to an offline run of the same checkpoint (any worker count, any client
// interleaving -- the PR-1 determinism contract carried into serving),
// shutdown must drain every accepted request, and checkpoint publishes must
// swap atomically at batch boundaries (a batch never mixes weight versions).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/serve/server.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"
#include "train_oracle.hpp"

namespace esam::serve {
namespace {

nn::SnnNetwork random_snn(const std::vector<std::size_t>& shape,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  nn::BnnNetwork bnn(shape, rng);
  for (auto& l : bnn.layers()) {
    for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  return nn::SnnNetwork::from_bnn(bnn);
}

std::vector<util::BitVec> random_inputs(std::size_t n, std::size_t width,
                                        std::uint64_t seed,
                                        double density = 0.25) {
  util::Rng rng(seed);
  std::vector<util::BitVec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::BitVec v(width);
    for (std::size_t k = 0; k < width; ++k) {
      if (rng.bernoulli(density)) v.set(k);
    }
    out.push_back(std::move(v));
  }
  return out;
}

TEST(Serve, ServedMatchesOfflineEvaluateAcrossWorkerCounts) {
  const nn::SnnNetwork snn = random_snn({96, 64, 32, 7}, 401);
  const auto inputs = random_inputs(48, 96, 402);

  // Offline reference: one pipeline, one stream.
  arch::SystemSimulator ref_sim(tech::imec3nm(), snn, {});
  const arch::RunResult ref = ref_sim.run(inputs);

  for (std::size_t workers : {1u, 4u}) {
    ServerConfig cfg;
    cfg.num_workers = workers;
    cfg.max_batch = 8;
    cfg.max_delay_us = 100.0;
    InferenceServer server(tech::imec3nm(), {},
                           io::Checkpoint::from_network(snn), cfg);
    server.start();

    std::vector<std::future<InferenceResult>> futs;
    futs.reserve(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      futs.push_back(server.submit(inputs[i], i % 3));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const InferenceResult r = futs[i].get();
      EXPECT_EQ(r.prediction, ref.predictions[i])
          << "workers=" << workers << " request " << i;
      EXPECT_EQ(r.model_version, 1u);
      EXPECT_GE(r.batch_size, 1u);
      EXPECT_GT(r.modeled_latency_ns, 0.0);
      EXPECT_GT(r.modeled_energy_pj, 0.0);
    }
    server.stop();

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests_served, inputs.size());
    EXPECT_GE(stats.batches_dispatched, 1u);
    EXPECT_EQ(stats.full_dispatches + stats.deadline_dispatches,
              stats.batches_dispatched);
    // Per-client accounting covers every request exactly once.
    std::uint64_t client_requests = 0;
    double client_energy = 0.0;
    for (const auto& [id, c] : stats.clients) {
      client_requests += c.requests;
      client_energy += c.modeled_energy_pj;
    }
    EXPECT_EQ(client_requests, inputs.size());
    EXPECT_NEAR(client_energy,
                util::in_picojoules(stats.ledger.total_energy()),
                1e-6 * client_energy + 1e-9);
  }
}

TEST(Serve, ConcurrentClientThreadsAreBitIdenticalToSerial) {
  const nn::SnnNetwork snn = random_snn({64, 48, 5}, 403);
  const auto inputs = random_inputs(60, 64, 404);

  arch::SystemSimulator ref_sim(tech::imec3nm(), snn, {});
  const std::vector<std::size_t> ref = ref_sim.run(inputs).predictions;

  ServerConfig cfg;
  cfg.num_workers = 3;
  cfg.max_batch = 4;
  cfg.max_delay_us = 50.0;
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), cfg);
  server.start();

  constexpr std::size_t kClients = 5;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::size_t, std::future<InferenceResult>>> futs;
      for (std::size_t i = c; i < inputs.size(); i += kClients) {
        futs.emplace_back(i, server.submit(inputs[i], c));
      }
      for (auto& [i, fut] : futs) {
        if (fut.get().prediction != ref[i]) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(server.stats().requests_served, inputs.size());
}

TEST(Serve, CleanShutdownDrainsInFlightRequests) {
  const nn::SnnNetwork snn = random_snn({64, 32, 4}, 405);
  const auto inputs = random_inputs(32, 64, 406);

  ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 64;          // never fills...
  cfg.max_delay_us = 500000.0; // ...and the deadline is far away:
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), cfg);
  server.start();

  // the only way these futures resolve promptly is the shutdown drain.
  std::vector<std::future<InferenceResult>> futs;
  for (const auto& in : inputs) futs.push_back(server.submit(in));
  server.stop();

  for (auto& fut : futs) {
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    (void)fut.get();
  }
  EXPECT_EQ(server.stats().requests_served, inputs.size());

  // After stop() the server refuses new work.
  EXPECT_THROW((void)server.submit(inputs[0]), std::logic_error);
  EXPECT_FALSE(server.running());
}

TEST(Serve, DeadlineDispatchesPartialBatches) {
  const nn::SnnNetwork snn = random_snn({64, 32, 4}, 407);
  const auto inputs = random_inputs(3, 64, 408);

  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 64;       // can never fill with 3 requests
  cfg.max_delay_us = 200.0; // so only the latency budget can dispatch
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), cfg);
  server.start();

  std::vector<std::future<InferenceResult>> futs;
  for (const auto& in : inputs) futs.push_back(server.submit(in));
  for (auto& fut : futs) {
    const InferenceResult r = fut.get();  // resolves without stop()
    EXPECT_LE(r.batch_size, inputs.size());
  }
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.deadline_dispatches, 1u);
  EXPECT_EQ(stats.full_dispatches, 0u);
  server.stop();
}

TEST(Serve, AtomicCheckpointSwapMidStream) {
  const nn::SnnNetwork model_a = random_snn({64, 48, 6}, 409);
  const nn::SnnNetwork model_b = random_snn({64, 48, 6}, 410);
  const auto inputs = random_inputs(40, 64, 411);

  arch::SystemSimulator sim_a(tech::imec3nm(), model_a, {});
  arch::SystemSimulator sim_b(tech::imec3nm(), model_b, {});
  const std::vector<std::size_t> ref_a = sim_a.run(inputs).predictions;
  const std::vector<std::size_t> ref_b = sim_b.run(inputs).predictions;

  ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.max_delay_us = 50.0;
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(model_a), cfg);
  server.start();
  EXPECT_EQ(server.model_version(), 1u);

  // First half against model A, then an atomic publish, then the rest.
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t i = 0; i < 20; ++i) {
    futs.push_back(server.submit(inputs[i], 0));
  }
  for (std::size_t i = 0; i < 20; ++i) {
    const InferenceResult r = futs[i].get();
    EXPECT_EQ(r.model_version, 1u);
    EXPECT_EQ(r.prediction, ref_a[i]);
  }

  server.publish(io::Checkpoint::from_network(model_b));
  EXPECT_EQ(server.model_version(), 2u);

  for (std::size_t i = 20; i < inputs.size(); ++i) {
    futs.push_back(server.submit(inputs[i], 0));
  }
  for (std::size_t i = 20; i < inputs.size(); ++i) {
    const InferenceResult r = futs[i].get();
    // Every result is consistent with exactly one published model: the
    // version it reports fully determines the prediction (no torn batches).
    if (r.model_version == 1u) {
      EXPECT_EQ(r.prediction, ref_a[i]);
    } else {
      EXPECT_EQ(r.model_version, 2u);
      EXPECT_EQ(r.prediction, ref_b[i]);
    }
  }
  server.stop();
  EXPECT_EQ(server.stats().checkpoints_published, 1u);

  // Shape discipline: a mismatched publish is rejected.
  EXPECT_THROW(server.publish(io::Checkpoint::from_network(
                   random_snn({64, 32, 6}, 412))),
               std::invalid_argument);
}

TEST(Serve, AdaptTrainsAndPublishesNewCheckpoints) {
  const nn::SnnNetwork snn = random_snn({64, 32, 8}, 413);
  const auto inputs = random_inputs(24, 64, 414);

  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.max_delay_us = 50.0;
  cfg.adapt = true;
  cfg.adapt_batch = 8;
  cfg.update_interval = 3;
  cfg.trainer.stdp = {.p_potentiation = 0.4, .p_depression = 0.2, .seed = 5};
  cfg.trainer.update_on_correct = true;
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), cfg);
  server.start();

  std::vector<std::uint8_t> labels;
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    labels.push_back(static_cast<std::uint8_t>(i % 8));
    futs.push_back(server.submit(inputs[i], 0, labels.back()));
  }
  for (auto& fut : futs) (void)fut.get();
  server.stop();  // flushes any buffered samples

  // Every round takes exactly adapt_batch samples, however the adaptation
  // thread's wake-ups interleave with serving: 24 / 8 = 3 publishes.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.adapt_samples, inputs.size());
  EXPECT_EQ(stats.checkpoints_published, 3u);
  EXPECT_EQ(server.model_version(), 1u + stats.checkpoints_published);

  // The published weights actually adapted (update_on_correct guarantees
  // column updates), and kept the deployed shape.
  const io::Checkpoint latest = server.current_checkpoint();
  EXPECT_EQ(latest.network.shape(), snn.shape());
  std::size_t diff = 0;
  for (std::size_t l = 0; l < snn.layers().size(); ++l) {
    diff += nn::weight_diff_count(snn.layers()[l], latest.network.layers()[l]);
  }
  EXPECT_GT(diff, 0u);

  // One worker serves the batches in submit order, so the adaptation
  // stream is the submit stream: the serial oracle, run in rounds of
  // adapt_batch (each committing every update_interval samples and
  // flushing its tail), lands on the published weights bit for bit.
  arch::SystemSimulator replay(tech::imec3nm(), snn, {});
  learning::OnlineTrainer trainer(replay.tiles(), cfg.trainer);
  for (std::size_t r0 = 0; r0 < inputs.size(); r0 += cfg.adapt_batch) {
    const auto first = static_cast<std::ptrdiff_t>(r0);
    const auto end = static_cast<std::ptrdiff_t>(r0 + cfg.adapt_batch);
    oracle::serial_train(
        replay, trainer, {inputs.begin() + first, inputs.begin() + end},
        {labels.begin() + first, labels.begin() + end}, cfg.update_interval);
  }
  EXPECT_EQ(io::Checkpoint::from_network(latest.network).encode(),
            io::Checkpoint::from_network(replay.export_network()).encode());
}

TEST(Serve, RejectsOutOfRangeLabelBeforeQueueing) {
  // A label past the output width must be rejected on the client's thread:
  // on the adaptation thread the trainer's range check would escape and
  // terminate the process.
  const nn::SnnNetwork snn = random_snn({64, 32, 6}, 416);
  const auto inputs = random_inputs(2, 64, 417);

  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.adapt = true;
  cfg.adapt_batch = 1;
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), cfg);
  server.start();
  EXPECT_THROW((void)server.submit(inputs[0], 0, std::uint8_t{200}),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit(inputs[0], 0, std::uint8_t{6}),
               std::invalid_argument);

  // The server is still up: a valid labeled request is answered and
  // reaches the adaptation engine, and shutdown completes.
  const InferenceResult ok =
      server.submit(inputs[1], 0, std::uint8_t{5}).get();
  EXPECT_LT(ok.prediction, 6u);
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, 1u);
  EXPECT_EQ(stats.adapt_samples, 1u);
}

TEST(Serve, RejectsThresholdsThatDoNotFitOnTheCallersThread) {
  // A threshold past the 12-bit Vth register fails Tile::load_layer's
  // up-front check; inside a worker that throw would terminate the process,
  // so the constructor and publish() must reject it first (through
  // arch::check_thresholds_fit), and the running server keeps serving.
  const nn::SnnNetwork snn = random_snn({16, 4}, 418);
  std::vector<nn::SnnLayer> layers = snn.layers();
  layers[0].thresholds[0] = 5000;
  const io::Checkpoint bad =
      io::Checkpoint::from_network(nn::SnnNetwork::from_layers(layers));
  EXPECT_THROW(InferenceServer(tech::imec3nm(), {}, bad, {}),
               std::invalid_argument);

  ServerConfig cfg;
  cfg.num_workers = 2;
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), cfg);
  server.start();
  EXPECT_THROW(server.publish(bad), std::invalid_argument);
  EXPECT_EQ(server.model_version(), 1u);

  const auto inputs = random_inputs(6, 16, 419);
  arch::SystemSimulator offline(tech::imec3nm(), snn, {});
  const std::vector<std::size_t> want = offline.run(inputs).predictions;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const InferenceResult r = server.submit(inputs[i]).get();
    EXPECT_EQ(r.prediction, want[i]) << "request " << i;
    EXPECT_EQ(r.model_version, 1u);
  }
  server.stop();
  EXPECT_EQ(server.stats().checkpoints_published, 0u);
}

TEST(Serve, StressSubmitAdaptPublishStopRace) {
  // TSan-targeted stress: client threads hammer submit() (some labeled, so
  // the background adaptation engine trains and publishes checkpoints
  // mid-stream), a reader thread polls every const accessor, and stop()
  // races the drain from yet another thread. Assertions are deliberately
  // minimal -- the point is driving every cross-thread edge (queue,
  // model-publish, stats, adapt buffer, shutdown) under the TSan lane,
  // where any data race or lock-order inversion is a test failure.
  const nn::SnnNetwork snn = random_snn({64, 32, 6}, 421);
  const auto inputs = random_inputs(48, 64, 422);

  ServerConfig cfg;
  cfg.num_workers = 4;
  cfg.max_batch = 3;
  cfg.max_delay_us = 30.0;
  cfg.adapt = true;
  cfg.adapt_batch = 4;
  cfg.trainer.stdp = {.p_potentiation = 0.4, .p_depression = 0.2, .seed = 7};
  cfg.trainer.update_on_correct = true;
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), cfg);
  server.start();

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 40;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> reader_stop{false};

  std::vector<std::thread> threads;
  threads.reserve(kClients + 2);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<InferenceResult>> futs;
      futs.reserve(kPerClient);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const util::BitVec& input = inputs[(c * kPerClient + i) %
                                           inputs.size()];
        std::optional<std::uint8_t> label;
        if (i % 3 == 0) label = static_cast<std::uint8_t>(i % 6);
        try {
          futs.push_back(server.submit(input, c, label));
          ++accepted;
        } catch (const std::logic_error&) {
          ++rejected;  // stop() won the race; acceptable from here on
        }
      }
      // Drain contract: every future obtained before/through the race
      // resolves -- the shutdown drain answers all accepted requests.
      for (auto& fut : futs) (void)fut.get();
    });
  }
  threads.emplace_back([&] {
    // Concurrent reads of every const accessor while the stream runs.
    while (!reader_stop.load()) {
      (void)server.model_version();
      (void)server.running();
      (void)server.stats();
      (void)server.current_checkpoint();
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {
    // Let some traffic actually get served, then race the drain. The wait
    // keeps the test meaningful (and adapt_samples nonzero) even on a
    // heavily loaded CI machine; the bound keeps it finite.
    for (int spins = 0; spins < 10000; ++spins) {
      if (server.stats().requests_served >= 8) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    server.stop();
  });

  for (std::size_t c = 0; c < kClients; ++c) threads[c].join();
  threads[kClients + 1].join();  // the stopper
  reader_stop.store(true);
  threads[kClients].join();  // the reader

  server.stop();  // idempotent after the racing stop()
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, accepted.load());
  EXPECT_EQ(accepted.load() + rejected.load(), kClients * kPerClient);
  // Labeled traffic reached the adaptation engine and produced publishes.
  EXPECT_GT(stats.adapt_samples, 0u);
  EXPECT_EQ(server.model_version(), 1u + stats.checkpoints_published);
}

TEST(Serve, RejectsBadInputsAndDoubleStart) {
  const nn::SnnNetwork snn = random_snn({64, 32, 4}, 415);
  InferenceServer server(tech::imec3nm(), {},
                         io::Checkpoint::from_network(snn), {});

  // Not started yet: no workers to serve a request.
  EXPECT_THROW((void)server.submit(util::BitVec(64)), std::logic_error);

  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_THROW(server.start(), std::logic_error);
  // Wrong spike width.
  EXPECT_THROW((void)server.submit(util::BitVec(63)), std::invalid_argument);
  server.stop();
  // stop() is idempotent.
  server.stop();

  // An empty checkpoint is rejected outright.
  EXPECT_THROW(InferenceServer(tech::imec3nm(), {}, io::Checkpoint{}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace esam::serve
