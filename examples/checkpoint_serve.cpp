// The full deployment loop: learn online -> checkpoint -> redeploy -> serve.
//
// A small classifier (256 inputs -> 64 hidden -> 10 classes) learns its task
// online, the adapted SRAM weights are snapshotted into a versioned
// checkpoint file, and the checkpoint is redeployed -- on fresh hardware --
// inside a serve::InferenceServer. Concurrent client threads stream requests
// at the server, which batches them dynamically (max-batch or latency
// budget, whichever first); because pipelining never changes what an
// inference computes, every served prediction is verified bit-identical to
// an offline run of the same checkpoint. A second phase drifts the inputs
// and re-serves them with background adaptation on: labeled requests train
// a mutable model copy that is atomically republished mid-stream, and the
// served accuracy recovers while the server keeps answering.
//
//   ./checkpoint_serve [--smoke]     (--smoke: tiny workload for CI)
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "esam/arch/system.hpp"
#include "esam/data/drift.hpp"
#include "esam/io/checkpoint.hpp"
#include "esam/serve/server.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

using namespace esam;

namespace {

constexpr std::size_t kInputs = 256;
constexpr std::size_t kHidden = 64;
constexpr std::size_t kClasses = 10;

std::vector<util::BitVec> make_prototypes(util::Rng& rng) {
  std::vector<util::BitVec> protos;
  for (std::size_t c = 0; c < kClasses; ++c) {
    util::BitVec p(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) {
      if (rng.bernoulli(0.25)) p.set(i);
    }
    protos.push_back(std::move(p));
  }
  return protos;
}

void make_samples(const std::vector<util::BitVec>& protos, std::size_t count,
                  util::Rng& rng, std::vector<util::BitVec>& inputs,
                  std::vector<std::uint8_t>& labels) {
  inputs.clear();
  labels.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_index(kClasses));
    util::BitVec s = protos[cls];
    for (std::size_t k = 0; k < s.size(); ++k) {
      if (rng.bernoulli(0.04)) s.set(k, !s.test(k));
    }
    inputs.push_back(std::move(s));
    labels.push_back(static_cast<std::uint8_t>(cls));
  }
}

nn::SnnNetwork make_network(util::Rng& rng) {
  nn::SnnLayer hidden;
  hidden.weight_rows.assign(kInputs, util::BitVec(kHidden));
  for (auto& row : hidden.weight_rows) {
    for (std::size_t j = 0; j < kHidden; ++j) {
      if (rng.bernoulli(0.5)) row.set(j);
    }
  }
  hidden.thresholds.assign(kHidden, 4);
  hidden.readout_offsets.assign(kHidden, 0.0f);

  nn::SnnLayer output;
  output.weight_rows.assign(kHidden, util::BitVec(kClasses));
  output.thresholds.assign(kClasses, 0);
  output.readout_offsets.assign(kClasses, 0.0f);
  return nn::SnnNetwork::from_layers({std::move(hidden), std::move(output)});
}

/// Drives the server with `n_clients` threads splitting `inputs` round-robin
/// and returns {correct, matches-reference} counts.
struct ServedOutcome {
  std::size_t correct = 0;
  std::size_t matched_reference = 0;
  std::size_t total = 0;
};
ServedOutcome serve_all(serve::InferenceServer& server,
                        const std::vector<util::BitVec>& inputs,
                        const std::vector<std::uint8_t>& labels,
                        const std::vector<std::size_t>* reference,
                        bool with_labels, std::size_t n_clients) {
  ServedOutcome out;
  // Function-local accumulator lock; capability annotations apply to members.
  std::mutex m;  // esam-lint: allow(mutex-needs-guard)
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::size_t,
                            std::future<serve::InferenceResult>>> futs;
      for (std::size_t i = c; i < inputs.size(); i += n_clients) {
        futs.emplace_back(
            i, server.submit(inputs[i], c,
                             with_labels
                                 ? std::optional<std::uint8_t>(labels[i])
                                 : std::nullopt));
      }
      ServedOutcome local;
      for (auto& [i, fut] : futs) {
        const serve::InferenceResult r = fut.get();
        ++local.total;
        if (r.prediction == labels[i]) ++local.correct;
        if (reference != nullptr && r.prediction == (*reference)[i]) {
          ++local.matched_reference;
        }
      }
      std::lock_guard<std::mutex> lk(m);
      out.correct += local.correct;
      out.matched_reference += local.matched_reference;
      out.total += local.total;
    });
  }
  for (auto& t : clients) t.join();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t n_samples = smoke ? 80 : 400;
  const std::size_t n_clients = 3;
  const char* ckpt_path = "esam_checkpoint_demo.esam";

  util::Rng rng(2026);
  const std::vector<util::BitVec> protos = make_prototypes(rng);
  std::vector<util::BitVec> inputs;
  std::vector<std::uint8_t> labels;
  make_samples(protos, n_samples, rng, inputs, labels);

  // Phase 1: learn the task online, then persist the adapted weights.
  arch::SystemSimulator sim(tech::imec3nm(), make_network(rng), {});
  arch::OnlineTrainConfig train_cfg;
  train_cfg.epochs = smoke ? 1 : 3;
  train_cfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12,
                            .seed = 99};
  train_cfg.trainer.update_on_correct = true;
  train_cfg.threads = 0;
  const arch::OnlineRunResult learned = sim.run_online(inputs, labels,
                                                       train_cfg);
  std::printf("learned the task online: %.1f%% -> %.1f%%\n",
              100.0 * learned.initial_accuracy,
              100.0 * learned.epochs.back().eval_accuracy);

  io::Checkpoint ckpt = io::Checkpoint::from_network(
      sim.export_network(), {.source = "checkpoint_serve example",
                             .note = "adapted online", .created_unix = 0});
  ckpt.save(ckpt_path);
  std::printf("checkpoint saved to %s (%zu bytes, shape", ckpt_path,
              ckpt.encode().size());
  for (std::size_t d : ckpt.shape()) std::printf(" %zu", d);
  std::printf(")\n\n");

  // Phase 2: redeploy the checkpoint on fresh hardware behind an inference
  // server and verify the served stream against an offline run.
  const io::Checkpoint deployed = io::Checkpoint::load(ckpt_path);
  arch::SystemSimulator offline(tech::imec3nm(), deployed.network, {});
  const std::vector<std::size_t> reference =
      offline.run(inputs).predictions;

  serve::ServerConfig scfg;
  scfg.num_workers = 2;
  scfg.max_batch = 8;
  scfg.max_delay_us = 200.0;
  serve::InferenceServer server(tech::imec3nm(), {}, deployed, scfg);
  server.start();
  const ServedOutcome served =
      serve_all(server, inputs, labels, &reference, false, n_clients);
  server.stop();
  const serve::ServerStats s1 = server.stats();
  std::printf("served %zu requests from %zu clients: accuracy %.1f%%, "
              "%zu/%zu bit-identical to the offline run\n",
              served.total, n_clients,
              100.0 * static_cast<double>(served.correct) /
                  static_cast<double>(served.total),
              served.matched_reference, served.total);
  std::printf(
      "  %llu batches (%llu full, %llu deadline), modeled energy %s\n\n",
      static_cast<unsigned long long>(s1.batches_dispatched),
      static_cast<unsigned long long>(s1.full_dispatches),
      static_cast<unsigned long long>(s1.deadline_dispatches),
      util::to_string(s1.ledger.total_energy()).c_str());

  // Phase 3: the input wiring drifts; serve the drifted stream with
  // background adaptation -- labeled requests train a mutable copy that is
  // atomically republished while serving continues.
  const data::DriftGenerator drift(kInputs, 0.5, 7);
  const std::vector<util::BitVec> drifted = drift.apply_all(inputs);

  serve::ServerConfig acfg = scfg;
  acfg.adapt = true;
  acfg.adapt_batch = smoke ? 16 : 32;
  acfg.trainer.stdp = {.p_potentiation = 0.35, .p_depression = 0.12,
                       .seed = 99};
  acfg.trainer.update_on_correct = true;
  serve::InferenceServer adapting(tech::imec3nm(), {}, deployed, acfg);
  adapting.start();
  const ServedOutcome pass1 =
      serve_all(adapting, drifted, labels, nullptr, true, n_clients);
  const ServedOutcome pass2 =
      serve_all(adapting, drifted, labels, nullptr, true, n_clients);
  adapting.stop();
  const serve::ServerStats s2 = adapting.stats();
  std::printf("after drift, serving with background adaptation:\n");
  std::printf("  pass 1 accuracy: %.1f%%   pass 2 accuracy: %.1f%%\n",
              100.0 * static_cast<double>(pass1.correct) /
                  static_cast<double>(pass1.total),
              100.0 * static_cast<double>(pass2.correct) /
                  static_cast<double>(pass2.total));
  std::printf("  %llu checkpoints republished mid-stream (model version %llu), "
              "%llu labeled samples trained\n",
              static_cast<unsigned long long>(s2.checkpoints_published),
              static_cast<unsigned long long>(adapting.model_version()),
              static_cast<unsigned long long>(s2.adapt_samples));
  std::remove(ckpt_path);
  return 0;
}
