// Regenerates Figure 8: system-level power, throughput, energy/inference and
// area for all five SRAM cell options, running the full MNIST-class
// 768:256:256:256:10 Binary-SNN through the cycle-accurate pipeline.
//
// The BNN is trained once (cached in ./esam_bnn_cache.bin) and shared by all
// five hardware configurations -- exactly the paper's methodology.
// Usage: bench_fig8_system [inferences] [threads] [--json PATH]
//   threads > 1 (or 0 = all cores) shards the simulation over host threads
//   (the modelled numbers do not change) and appends a simulator-throughput
//   speedup measurement vs 1 thread.
//   --json writes the modelled per-cell metrics (machine-independent) plus
//   host-throughput info for the benchmark-regression gate
//   (scripts/check_bench.py).
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "esam/core/esam.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/util/simd.hpp"

using namespace esam;

namespace {

double wall_seconds_of_run(core::EsamSystem& system, std::size_t inferences,
                           const arch::RunConfig& run_cfg) {
  const auto start = std::chrono::steady_clock::now();
  (void)system.evaluate(inferences, run_cfg);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "bench_fig8_system [inferences] [threads] [--smoke] [--json PATH]";
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, kUsage);
  const bool smoke = args.smoke;
  const std::string& json_path = args.json_path;

  bench::print_setup_header(
      "Figure 8: system-level comparison of cell options");

  const std::size_t inferences =
      smoke ? 48 : bench::size_positional(args, 0, 500, kUsage);
  std::size_t threads = smoke ? 2 : bench::size_positional(args, 1, 1, kUsage);
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const arch::RunConfig run_cfg{.num_threads = threads};

  core::ModelConfig mc = smoke ? bench::smoke_model_config()
                               : core::ModelConfig{};
  mc.verbose = true;
  const core::TrainedModel model = core::TrainedModel::create(mc);
  std::printf("dataset: %s (%zu test, %.1f%% input spike density)\n",
              model.data.test.source.c_str(), model.data.test.size(),
              100.0 * model.data.test.spike_density());
  // Train accuracy exists only when this run trained (no BNN cache hit).
  std::printf("BNN accuracy: ");
  if (model.bnn_train_accuracy) {
    std::printf("train %.2f%%, ", 100.0 * *model.bnn_train_accuracy);
  }
  std::printf("test %.2f%% (paper: 97.64%% on MNIST)\n\n",
              100.0 * model.bnn_test_accuracy);

  util::Table table("Fig. 8 -- system level, 768:256:256:256:10 Binary-SNN");
  table.header({"cell", "clock [MHz]", "throughput [MInf/s]",
                "energy [pJ/Inf]", "power [mW]", "area [um^2]",
                "accuracy [%]", "cycles/Inf"});

  double thr_1rw = 0.0, e_1rw = 0.0, area_1rw = 0.0;
  double thr_4r = 0.0, e_4r = 0.0, area_4r = 0.0;
  std::vector<core::SystemReport> reports;
  for (sram::CellKind kind : sram::kAllCellKinds) {
    arch::SystemConfig hw;
    hw.cell = kind;
    core::EsamSystem system(model, hw);
    const core::SystemReport r = system.evaluate(inferences, run_cfg);
    reports.push_back(r);
    table.row({r.cell, util::fmt("%.0f", r.clock_mhz),
               util::fmt("%.1f", r.throughput_minf_per_s),
               util::fmt("%.0f", r.energy_per_inf_pj),
               util::fmt("%.1f", r.power_mw), util::fmt("%.0f", r.area_um2),
               util::fmt("%.2f", 100.0 * r.accuracy),
               util::fmt("%.1f", r.avg_cycles_per_inf)});
    if (kind == sram::CellKind::k1RW) {
      thr_1rw = r.throughput_minf_per_s;
      e_1rw = r.energy_per_inf_pj;
      area_1rw = r.area_um2;
    }
    if (kind == sram::CellKind::k1RW4R) {
      thr_4r = r.throughput_minf_per_s;
      e_4r = r.energy_per_inf_pj;
      area_4r = r.area_um2;
    }
  }
  namespace calib = tech::calib;
  table.note(util::fmt(
      "1RW+4R vs 1RW: speed %.2fx (paper %.1fx), energy %.2fx (paper %.1fx), "
      "area %.2fx (paper %.1fx)",
      thr_4r / thr_1rw, calib::kArraySpeedup, e_1rw / e_4r,
      calib::kArrayEnergyGain, area_4r / area_1rw,
      calib::kSystemAreaRatio4RvsBaseline));
  table.note(util::fmt(
      "paper 1RW+4R system: %.0f MInf/s at %.0f pJ/Inf and %.0f mW",
      calib::kSystemThroughputMInfPerS, calib::kSystemEnergyPerInfPj,
      calib::kSystemPowerMw));
  table.note("1RW -> 1RW+1R throughput dips slightly (same parallelism, "
             "slower reads); 2+ ports overtake it");
  table.print();

  if (threads != 1) {
    // Simulator-software speedup: same workload, 1 thread vs N.
    arch::SystemConfig hw;
    core::EsamSystem system(model, hw);
    const double t1 = wall_seconds_of_run(system, inferences, {});
    const double tn = wall_seconds_of_run(system, inferences, run_cfg);
    std::printf(
        "\nsimulator speedup (1RW+4R, %zu inferences): %.2fs @ 1 thread -> "
        "%.2fs @ %zu threads = %.2fx\n",
        inferences, t1, tn, threads, tn > 0.0 ? t1 / tn : 0.0);
  }

  if (!json_path.empty()) {
    // Within-run simulator speedup: the optimized configuration (fast
    // pipelined engine + active SIMD backend) against the pre-optimization
    // reference (lockstep engine, selected by an observer, + scalar kernels)
    // on the flagship 1RW+4R cell. Both sides run single-threaded over one
    // stream, so only the engine and the kernels differ. Being a ratio of
    // two same-host measurements it is comparable across machines, so
    // check_bench.py gates it.
    namespace simd = util::simd;
    arch::SystemConfig hw;
    core::EsamSystem system(model, hw);
    arch::SystemSimulator& sim = system.simulator();
    // Enough inferences for a stable wall-clock ratio even in --smoke, and
    // best-of-3 to shed scheduler noise.
    const std::size_t ratio_inferences = std::min(
        std::max<std::size_t>(inferences, smoke ? 20000 : 2000),
        model.data.test.size());
    const std::vector<util::BitVec> ratio_inputs =
        bench::take_spikes(model.data.test, ratio_inferences);
    const std::vector<std::uint8_t> ratio_labels =
        bench::take_labels(model.data.test, ratio_inferences);
    const auto best_of_3 = [](const auto& run) {
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        run();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        best = rep == 0 ? s : std::min(best, s);
      }
      return best;
    };
    const simd::Backend saved = simd::active_backend();
    simd::set_active_backend(simd::Backend::kScalar);
    arch::NoopObserver lockstep;
    const double t_ref = best_of_3(
        [&] { (void)sim.run(ratio_inputs, &ratio_labels, &lockstep); });
    simd::set_active_backend(saved);
    const double t_opt =
        best_of_3([&] { (void)sim.run(ratio_inputs, &ratio_labels); });
    const double speedup = t_opt > 0.0 ? t_ref / t_opt : 0.0;
    std::printf(
        "\noptimized vs reference engine (1RW+4R, %zu inferences): "
        "%.3fs lockstep+scalar -> %.3fs pipelined+%s = %.2fx\n",
        ratio_inferences, t_ref, t_opt, simd::active_backend_name(), speedup);

    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig8_system\",\n");
    std::fprintf(f, "  \"simd_backend\": \"%s\",\n",
                 simd::active_backend_name());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"inferences\": %zu,\n", inferences);
    std::fprintf(f, "  \"metrics\": {\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const core::SystemReport& r = reports[i];
      std::fprintf(f,
                   "    \"%s.accuracy\": %.17g,\n"
                   "    \"%s.energy_per_inf_pj\": %.17g,\n"
                   "    \"%s.power_mw\": %.17g,\n"
                   "    \"%s.area_um2\": %.17g,\n"
                   "    \"%s.avg_cycles_per_inf\": %.17g,\n"
                   "    \"%s.throughput_minf_per_s\": %.17g%s\n",
                   r.cell.c_str(), r.accuracy, r.cell.c_str(),
                   r.energy_per_inf_pj, r.cell.c_str(), r.power_mw,
                   r.cell.c_str(), r.area_um2, r.cell.c_str(),
                   r.avg_cycles_per_inf, r.cell.c_str(),
                   r.throughput_minf_per_s,
                   i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"ratios\": {\n");
    std::fprintf(f, "    \"optimized_over_reference\": %.17g\n", speedup);
    std::fprintf(f, "  },\n  \"info\": {\n");
    std::fprintf(f, "    \"sim_inf_per_s\": %.17g,\n",
                 reports.empty() ? 0.0 : reports.back().sim_inf_per_s);
    std::fprintf(f, "    \"reference_wall_s\": %.17g,\n", t_ref);
    std::fprintf(f, "    \"optimized_wall_s\": %.17g\n", t_opt);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
