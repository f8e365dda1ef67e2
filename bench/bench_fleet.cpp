// Extension bench: fleet-scale multi-device simulation. Trains one model,
// stamps N simulated dies from it (per-die process corner, stuck-at fault
// map and drift trajectory; see include/esam/fleet/), runs the sharded
// field scenario on every die and reports the cross-fleet yield and
// accuracy/energy distributions. The bench also re-runs the fleet with a
// different worker count and checks the reports bit-identical -- the
// determinism contract `esam fleet --workers N` relies on -- and emits the
// machine-independent metrics as --json for the CI regression gate.
#include "bench_common.hpp"
#include "esam/fleet/fleet.hpp"

#include <chrono>
#include <cstdio>

using namespace esam;

namespace {

bool identical(const fleet::FleetReport& a, const fleet::FleetReport& b) {
  if (a.per_device.size() != b.per_device.size()) return false;
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    const fleet::DeviceReport& x = a.per_device[i];
    const fleet::DeviceReport& y = b.per_device[i];
    if (x.id != y.id || x.fault_cells != y.fault_cells ||
        x.inferences != y.inferences ||
        x.column_updates != y.column_updates ||
        x.functional != y.functional ||
        x.accuracy_clean != y.accuracy_clean ||
        x.accuracy_drifted != y.accuracy_drifted ||
        x.accuracy_final != y.accuracy_final ||
        x.energy_per_inf_pj != y.energy_per_inf_pj ||
        x.timing.read_path_ns != y.timing.read_path_ns ||
        x.seeds.variation != y.seeds.variation ||
        x.seeds.learning != y.seeds.learning) {
      return false;
    }
  }
  return a.timing_yield == b.timing_yield &&
         a.functional_yield == b.functional_yield;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "bench_fleet [devices] [--smoke] [--json PATH]";
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, kUsage);
  const std::size_t devices =
      args.smoke ? 8 : bench::size_positional(args, 0, 32, kUsage);
  if (devices == 0) {
    std::fprintf(stderr, "need at least 1 device\nusage: %s\n", kUsage);
    return 2;
  }

  bench::print_setup_header("Extension: fleet-scale multi-device simulation");

  core::ModelConfig mc =
      args.smoke ? bench::smoke_model_config() : core::ModelConfig{};
  mc.verbose = true;
  const core::TrainedModel model = core::TrainedModel::create(mc);

  fleet::FleetConfig fc;
  fc.devices = devices;
  fc.shard_inferences = args.smoke ? 48 : 128;
  fc.adapt_epochs = 1;
  fc.update_interval = 4;
  fc.device.defect_rate = 2e-3;
  fc.device.drift_fraction = 0.25;

  const auto start = std::chrono::steady_clock::now();
  fc.workers = 1;
  const fleet::FleetSimulator serial(model.snn, model.data.test,
                                     tech::imec3nm(), fc);
  const fleet::FleetReport report = serial.run();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  report.print();

  // Determinism contract: a 4-worker fleet must reproduce the 1-worker
  // report bit for bit (same merge discipline as run_batched).
  fc.workers = 4;
  const fleet::FleetSimulator pooled(model.snn, model.data.test,
                                     tech::imec3nm(), fc);
  const bool deterministic = identical(report, pooled.run());
  std::printf("\nworkers 1 vs 4: %s\n",
              deterministic ? "bit-identical" : "MISMATCH");

  if (!args.json_path.empty()) {
    std::uint64_t updates = 0;
    std::size_t faults = 0;
    for (const fleet::DeviceReport& d : report.per_device) {
      updates += d.column_updates;
      faults += d.fault_cells;
    }
    bench::BenchJson json{"fleet", args.smoke};
    json.counts = {{"devices", devices}};
    json.metrics = {
        {"timing_yield", report.timing_yield},
        {"functional_yield", report.functional_yield},
        {"accuracy_final_min", report.accuracy_final.min},
        {"accuracy_final_p50", report.accuracy_final.p50},
        {"accuracy_drifted_p50", report.accuracy_drifted.p50},
        {"energy_per_inf_pj_p50", report.energy_per_inf_pj.p50},
        {"read_path_ns_p50", report.read_path_ns.p50},
        {"fault_cells_total", static_cast<double>(faults)},
        {"column_updates_total", static_cast<double>(updates)},
        {"worker_determinism", deterministic ? 1.0 : 0.0},
    };
    json.info = {{"wall_s", wall_s}};
    if (!json.write(args.json_path)) return 1;
  }
  return deterministic ? 0 : 1;
}
