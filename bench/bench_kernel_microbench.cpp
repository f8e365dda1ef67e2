// K1: microbenchmarks of the simulator kernels -- SIMD bit-kernels, arbiter
// grant loops, the fast engine vs its lockstep oracle, the packed BNN
// forward vs the SNN software reference, BNN training, and synthetic digit
// generation. These measure the *reproduction's* software performance (how
// fast the simulator itself runs), not the modelled hardware.
//
// Self-contained steady_clock harness (no external benchmark framework), so
// the binary always builds and can feed the benchmark-regression gate.
// Absolute times (ns/op, us/sample) are host-dependent and reported as
// information only; the within-run speedup *ratios* (SIMD backend vs
// scalar, pipelined engine vs lockstep, SNN vs BNN scoring) are what
// scripts/check_bench.py gates, since they are comparable across hosts.
//
// Usage: bench_kernel_microbench [--smoke] [--json PATH]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "esam/arch/system.hpp"
#include "esam/data/dataset.hpp"
#include "esam/nn/convert.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"
#include "esam/util/simd.hpp"

namespace {

using namespace esam;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `op` (which runs `inner` operations per call): doubles the batch
/// until the measurement window is long enough, then reports ns/op.
template <typename F>
double ns_per_op(F&& op, double min_window_s, std::size_t inner = 1) {
  std::size_t batch = 1;
  for (;;) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < batch; ++i) op();
    const double dt = now_seconds() - t0;
    if (dt >= min_window_s || batch >= (std::size_t{1} << 30)) {
      return dt * 1e9 /
             (static_cast<double>(batch) * static_cast<double>(inner));
    }
    batch = dt <= 0.0 ? batch * 8 : batch * 2;
  }
}

struct Metric {
  std::string name;
  double value;
};

util::BitVec random_bits(std::size_t width, std::uint64_t seed,
                         double density) {
  util::Rng rng(seed);
  util::BitVec v(width);
  for (std::size_t i = 0; i < width; ++i) {
    if (rng.bernoulli(density)) v.set(i);
  }
  return v;
}

std::vector<util::BitVec> random_inputs(std::size_t n, std::size_t width,
                                        std::uint64_t seed, double density) {
  std::vector<util::BitVec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(random_bits(width, seed + i, density));
  }
  return out;
}

volatile std::size_t g_sink;  // defeats dead-code elimination

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "bench_kernel_microbench [--smoke] [--json PATH]");
  const bool smoke = args.smoke;
  const std::string& json_path = args.json_path;
  const double window = smoke ? 0.002 : 0.05;

  namespace simd = util::simd;
  std::printf("K1 -- simulator kernel microbenchmarks\n");
  std::printf("SIMD backend: %s (available:", simd::active_backend_name());
  for (simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::available(b)) std::printf(" %s", simd::backend_name(b));
  }
  std::printf(")\n\n");

  std::vector<Metric> host_ns;
  std::vector<Metric> ratios;

  // --- SIMD kernels: active backend vs scalar reference ---------------------
  {
    const util::BitVec a = random_bits(1024, 11, 0.5);
    const util::BitVec b = random_bits(1024, 12, 0.5);
    const simd::Kernels& act = simd::active();
    const simd::Kernels& ref = simd::scalar_kernels();

    struct KernelCase {
      const char* name;
      double active_ns;
      double scalar_ns;
    };
    std::vector<KernelCase> cases;
    cases.push_back(
        {"bitvec_count_1024",
         ns_per_op([&] { g_sink = act.count(a.words().data(), 16); }, window),
         ns_per_op([&] { g_sink = ref.count(a.words().data(), 16); }, window)});
    cases.push_back(
        {"bitvec_and_count_1024",
         ns_per_op(
             [&] {
               g_sink = act.and_count(a.words().data(), b.words().data(), 16);
             },
             window),
         ns_per_op(
             [&] {
               g_sink = ref.and_count(a.words().data(), b.words().data(), 16);
             },
             window)});
    std::printf("%-28s %12s %12s %9s\n", "kernel", "active ns/op",
                "scalar ns/op", "speedup");
    for (const KernelCase& c : cases) {
      const double speedup = c.scalar_ns / c.active_ns;
      std::printf("%-28s %12.2f %12.2f %8.2fx\n", c.name, c.active_ns,
                  c.scalar_ns, speedup);
      host_ns.push_back({c.name, c.active_ns});
      ratios.push_back({std::string(c.name) + "_simd_speedup", speedup});
    }
  }

  // --- arbiter hot op -------------------------------------------------------
  {
    const util::BitVec req = random_bits(128, 14, 0.3);
    arbiter::MultiPortArbiter arb(128, 4);
    arbiter::GrantSet grants;
    const double drain_ns = ns_per_op(
        [&] {
          arb.reset();
          arb.request(req);
          while (!arb.r_empty()) arb.arbitrate_into(grants);
        },
        window);
    host_ns.push_back({"arbiter_drain_128_p4", drain_ns});
    std::printf("%-28s %12.2f\n", "arbiter_drain_128_p4", drain_ns);
  }

  // --- execution engines: pipelined vs lockstep tile walk -----------------
  {
    util::Rng rng(3);
    const std::vector<std::size_t> shape =
        smoke ? std::vector<std::size_t>{768, 64, 10}
              : std::vector<std::size_t>{768, 256, 256, 256, 10};
    nn::BnnNetwork bnn(shape, rng);
    const nn::SnnNetwork snn = nn::SnnNetwork::from_bnn(bnn);
    arch::SystemSimulator sim(tech::imec3nm(), snn, {});
    const auto inputs = random_inputs(smoke ? 8 : 16, 768, 100, 0.19);

    // An observer selects the lockstep engine: the reference the fast
    // engine is timed against.
    arch::NoopObserver lockstep;
    const double seq_ns = ns_per_op(
        [&] { g_sink = sim.run(inputs, nullptr, &lockstep).cycles; },
        smoke ? 0.0 : window, inputs.size());
    const double pipe_ns = ns_per_op(
        [&] { g_sink = sim.run_batched(inputs, nullptr, {}).cycles; },
        smoke ? 0.0 : window, inputs.size());
    const double speedup = seq_ns / pipe_ns;
    std::printf("\n%-28s %12.0f ns/inference\n", "engine_sequential", seq_ns);
    std::printf("%-28s %12.0f ns/inference\n", "engine_pipelined", pipe_ns);
    std::printf("%-28s %11.2fx\n", "pipelined_speedup", speedup);
    host_ns.push_back({"engine_sequential_ns_per_inf", seq_ns});
    host_ns.push_back({"engine_pipelined_ns_per_inf", pipe_ns});
    ratios.push_back({"pipelined_over_sequential", speedup});
  }

  // --- scoring and training: packed BNN forward vs the SNN reference -----
  {
    // Same random paper-shape network and inputs for all three; the ratio
    // snn/bnn stays >= 0.5 while the BNN scores within 2x of the SNN.
    util::Rng rng(4);
    const nn::BnnNetwork bnn({768, 256, 256, 256, 10}, rng);
    const nn::SnnNetwork snn = nn::SnnNetwork::from_bnn(bnn);
    const std::size_t n = smoke ? 128 : 1024;
    std::vector<std::vector<float>> bipolar;
    std::vector<util::BitVec> spikes;
    std::vector<std::uint8_t> labels;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<float> x(768);
      for (float& v : x) v = rng.bernoulli(0.19) ? 1.0f : -1.0f;
      spikes.push_back(nn::to_spikes(x));
      bipolar.push_back(std::move(x));
      labels.push_back(static_cast<std::uint8_t>(rng.uniform_index(10)));
    }
    volatile double acc_sink = 0.0;
    const double score_window = smoke ? 0.02 : 0.2;
    const double bnn_ns = ns_per_op(
        [&] { acc_sink = bnn.accuracy(bipolar, labels); }, score_window, n);
    const double snn_ns = ns_per_op(
        [&] { acc_sink = snn.accuracy(spikes, labels); }, score_window, n);
    // Training on the same network and inputs: one epoch of fit() per op,
    // each on a fresh copy, so every op does the same work.
    nn::TrainConfig tc;
    tc.epochs = 1;
    const double train_ns = ns_per_op(
        [&] {
          nn::BnnNetwork net = bnn;
          nn::BnnTrainer trainer(net, tc);
          acc_sink = trainer.fit(bipolar, labels);
        },
        score_window, n);
    std::printf("\n%-28s %12.0f ns/sample\n", "bnn_score", bnn_ns);
    std::printf("%-28s %12.0f ns/sample\n", "snn_score", snn_ns);
    std::printf("%-28s %12.0f ns/sample-epoch\n", "bnn_train", train_ns);
    std::printf("%-28s %11.2fx\n", "snn_over_bnn_score", snn_ns / bnn_ns);
    host_ns.push_back({"bnn_score_ns_per_sample", bnn_ns});
    host_ns.push_back({"snn_score_ns_per_sample", snn_ns});
    host_ns.push_back({"bnn_train_ns_per_sample", train_ns});
    ratios.push_back({"snn_over_bnn_score", snn_ns / bnn_ns});
  }

  // --- data: synthetic digits, generated and prepared -------------------
  {
    // One timed call, 1 000 samples: the per-sample cost of the test-stream
    // synthesis every warm start pays.
    constexpr std::size_t kSamples = 1000;
    const double t0 = now_seconds();
    const data::Dataset raw = data::generate_synthetic_digits(kSamples, 7);
    const data::PreparedDataset p = data::prepare(raw, "synthetic");
    const double us = (now_seconds() - t0) * 1e6 / kSamples;
    g_sink = p.size();
    std::printf("\n%-28s %12.2f us/sample\n", "synth", us);
    host_ns.push_back({"synth_us_per_sample", us});
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"kernel_microbench\",\n");
    std::fprintf(f, "  \"simd_backend\": \"%s\",\n",
                 simd::active_backend_name());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"info\": {\n");
    for (std::size_t i = 0; i < host_ns.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.17g%s\n", host_ns[i].name.c_str(),
                   host_ns[i].value, i + 1 < host_ns.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"ratios\": {\n");
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.17g%s\n", ratios[i].name.c_str(),
                   ratios[i].value, i + 1 < ratios.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
