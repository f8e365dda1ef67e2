// The multi-threaded simulation engine: shard the samples of one inference
// stream over worker threads that each own a cloned tile pipeline, then
// retire the whole stream through one cascade schedule. The result is
// bit-for-bit identical to the single-threaded run -- same predictions,
// same modelled cycles, same energy ledger -- while the simulator's own
// wall-clock throughput scales with the host cores.
//
//   ./example_batched_inference [inferences] [threads]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "esam/arch/system.hpp"
#include "esam/nn/bnn.hpp"
#include "esam/nn/convert.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/parse.hpp"
#include "esam/util/rng.hpp"
#include "esam/util/table.hpp"

using namespace esam;

namespace {

double wall_seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  // Strict argv parsing (atoll accepted garbage and wrapped negatives);
  // runs before any simulator construction so bad input fails fast.
  const auto size_arg = [&](int idx, std::size_t fallback) {
    if (argc <= idx) return fallback;
    const auto parsed = util::parse_size(argv[idx]);
    if (!parsed) {
      std::fprintf(stderr,
                   "expected a non-negative integer, got '%s'\n"
                   "usage: batched_inference [inferences] [max_threads]\n",
                   argv[idx]);
      std::exit(2);
    }
    return *parsed;
  };
  const std::size_t n = size_arg(1, 512);
  std::size_t max_threads = size_arg(2, 0);
  if (max_threads == 0) {
    max_threads = std::max(1u, std::thread::hardware_concurrency());
  }

  // Paper-shaped network with random weights: the engine's behaviour does
  // not depend on training, so keep the example fast to start.
  util::Rng rng(21);
  nn::BnnNetwork bnn({768, 256, 256, 256, 10}, rng);
  const nn::SnnNetwork snn = nn::SnnNetwork::from_bnn(bnn);
  arch::SystemSimulator sim(tech::imec3nm(), snn, {});

  std::vector<util::BitVec> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::BitVec v(768);
    for (std::size_t k = 0; k < 768; ++k) {
      if (rng.bernoulli(0.19)) v.set(k);
    }
    inputs.push_back(std::move(v));
  }
  std::printf("streaming %zu inferences through the 768:256:256:256:10 "
              "pipeline as one stream\n\n", n);

  util::Table table("batched engine scaling");
  table.header({"threads", "wall [s]", "sim speed [Inf/s]", "speedup",
                "modelled cycles", "energy [pJ/Inf]"});

  arch::RunResult reference;
  double t1 = 0.0;
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    const auto start = std::chrono::steady_clock::now();
    const arch::RunResult r =
        sim.run_batched(inputs, nullptr, {.num_threads = threads});
    const double secs = wall_seconds(start);
    if (threads == 1) {
      reference = r;
      t1 = secs;
    } else {
      // The engine's core guarantee: thread count never changes the result.
      if (r.predictions != reference.predictions ||
          r.cycles != reference.cycles ||
          r.ledger.total_energy().base() !=
              reference.ledger.total_energy().base()) {
        std::fprintf(stderr, "determinism violated at %zu threads!\n",
                     threads);
        return 1;
      }
    }
    table.row({util::fmt("%zu", threads), util::fmt("%.3f", secs),
               util::fmt("%.0f", static_cast<double>(n) / secs),
               util::fmt("%.2fx", t1 / secs),
               util::fmt("%llu", static_cast<unsigned long long>(r.cycles)),
               util::fmt("%.0f",
                         util::in_picojoules(r.energy_per_inference))});
  }
  table.note("modelled cycles and energy are identical on every row: one "
             "schedule over the whole stream, integer event counts summed "
             "and priced once");
  table.print();
  return 0;
}
