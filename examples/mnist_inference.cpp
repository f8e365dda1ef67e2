// MNIST digit classification on ESAM -- the paper's sec. 4.4.2 application.
//
// Trains the 768:256:256:256:10 BNN (or loads a cached one), converts it to
// a Binary-SNN with per-neuron thresholds, streams test digits through the
// cycle-accurate 1RW+4R pipeline, and prints the Fig. 8 / Table 3 metrics
// plus an energy breakdown.
//
//   ./mnist_inference [n_inferences]     (default 500)
//
// Set ESAM_MNIST_DIR to a directory with the IDX files to use real MNIST;
// otherwise the synthetic digit generator is used (see DESIGN.md sec. 2).
#include <cstdio>
#include <cstdlib>

#include "esam/core/esam.hpp"
#include "esam/util/parse.hpp"

using namespace esam;

int main(int argc, char** argv) {
  // Strict parse before any model work: atoi silently wrapped "-1" to
  // SIZE_MAX here.
  std::size_t n = 500;
  if (argc > 1) {
    const auto parsed = util::parse_size(argv[1]);
    if (!parsed) {
      std::fprintf(stderr,
                   "expected a non-negative integer, got '%s'\n"
                   "usage: mnist_inference [n_inferences]\n",
                   argv[1]);
      return 2;
    }
    n = *parsed;
  }

  core::ModelConfig mc;
  mc.verbose = true;
  const core::TrainedModel model = core::TrainedModel::create(mc);

  // Train accuracy exists only when this run trained (no BNN cache hit).
  std::printf("\nBNN: ");
  if (model.bnn_train_accuracy) {
    std::printf("train %.2f%%, ", 100.0 * *model.bnn_train_accuracy);
  }
  std::printf("test %.2f%% | converted SNN is bit-exact (same decisions)\n",
              100.0 * model.bnn_test_accuracy);
  std::printf("network: 768:256:256:256:10 -> %zu neurons, %zu synapses\n\n",
              model.snn.neuron_count(), model.snn.synapse_count());

  core::EsamSystem system(model, {});  // 1RW+4R @ 500 mV
  core::SystemReport report = system.evaluate(n);
  report.print();

  // Show a few individual classifications.
  std::printf("\nsample classifications (hardware pipeline):\n");
  arch::SystemSimulator& sim = system.simulator();
  for (std::size_t i = 0; i < 8 && i < model.data.test.size(); ++i) {
    std::vector<util::BitVec> one{model.data.test.spikes[i]};
    const arch::RunResult r = sim.run(one);
    std::printf(
        "  digit %u -> predicted %zu %s (%zu input spikes, %llu cycles)\n",
        model.data.test.labels[i], r.predictions[0],
        r.predictions[0] == model.data.test.labels[i] ? "ok" : "WRONG",
        model.data.test.spikes[i].count(),
        static_cast<unsigned long long>(r.cycles));
  }
  return 0;
}
