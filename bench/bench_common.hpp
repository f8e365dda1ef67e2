// Shared plumbing for the benchmark harnesses that regenerate the paper's
// tables and figures. Each binary prints the experimental-setup header
// (Table 1) followed by its own table(s), with the paper's reported values
// alongside the model's measurements wherever the paper states a number.
// Every bench binary accepts a `--smoke` flag (registered as a CTest smoke
// target): the same code paths on a workload small enough for every CI run,
// so the perf harnesses are compiled *and exercised* on each commit.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "esam/core/esam.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/parse.hpp"
#include "esam/util/simd.hpp"
#include "esam/util/table.hpp"

namespace esam::bench {

/// Strictly parsed bench command line: the two flags every bench accepts
/// (--smoke and --json PATH) plus bare positionals. Anything else -- an
/// unknown --flag, or later a non-numeric positional -- exits 2 with the
/// usage line, *before* any model work (atoi used to silently wrap
/// `bench_fault_injection -1` to SIZE_MAX instead).
struct BenchArgs {
  bool smoke = false;
  std::string json_path;
  std::vector<std::string> positionals;
};

inline BenchArgs parse_bench_args(int argc, char** argv, const char* usage) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      out.smoke = true;
      continue;
    }
    if (arg == "--json") {
      // A following flag is not a path: `--json --smoke` must not write the
      // JSON to a file named "--smoke".
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        std::fprintf(stderr, "--json expects a file path\nusage: %s\n", usage);
        std::exit(2);
      }
      out.json_path = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\nusage: %s\n", arg.c_str(),
                   usage);
      std::exit(2);
    }
    out.positionals.push_back(arg);
  }
  return out;
}

/// A bench's --json record: header fields, then the "metrics" (modelled,
/// machine-independent; check_bench.py gates them exactly), "ratios"
/// (same-host speedups; gated against floors) and "info" (host timings;
/// never gated) sections. Empty sections are left out; doubles print as
/// %.17g, so they read back exactly.
struct BenchJson {
  using Section = std::vector<std::pair<std::string, double>>;

  // The `{}` initializers let a bench write `BenchJson json{"name", smoke};`
  // under -Wextra (-Wmissing-field-initializers).
  std::string bench;
  bool smoke = false;
  /// Header counts after "smoke", e.g. {"inferences", 200}.
  std::vector<std::pair<std::string, std::size_t>> counts{};
  Section metrics{};
  Section ratios{};
  Section info{};

  /// Writes the record (with the active SIMD backend) to `path`; false,
  /// after saying so on stderr, when the file cannot be opened.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench.c_str());
    std::fprintf(f, "  \"simd_backend\": \"%s\",\n",
                 util::simd::active_backend_name());
    std::fprintf(f, "  \"smoke\": %s", smoke ? "true" : "false");
    for (const auto& [key, n] : counts) {
      std::fprintf(f, ",\n  \"%s\": %zu", key.c_str(), n);
    }
    const auto write_section = [f](const char* name, const Section& section) {
      if (section.empty()) return;
      std::fprintf(f, ",\n  \"%s\": {", name);
      const char* sep = "\n";
      for (const auto& [key, value] : section) {
        std::fprintf(f, "%s    \"%s\": %.17g", sep, key.c_str(), value);
        sep = ",\n";
      }
      std::fprintf(f, "\n  }");
    };
    write_section("metrics", metrics);
    write_section("ratios", ratios);
    write_section("info", info);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }
};

/// Positional `idx` as a strict non-negative integer; absent positionals
/// fall back to `fallback`, garbage (signs, suffixes, overflow) exits 2.
inline std::size_t size_positional(const BenchArgs& args, std::size_t idx,
                                   std::size_t fallback, const char* usage) {
  if (idx >= args.positionals.size()) return fallback;
  const auto v = util::parse_size(args.positionals[idx]);
  if (!v) {
    std::fprintf(stderr,
                 "expected a non-negative integer, got '%s'\nusage: %s\n",
                 args.positionals[idx].c_str(), usage);
    std::exit(2);
  }
  return *v;
}

/// Clamps a requested sample count to the dataset size, printing the
/// effective count on a clamp (`begin() + n` slices used to walk past the
/// end of the test set when n exceeded it). 0 means "all samples".
inline std::size_t clamp_to_dataset(std::size_t requested,
                                    const data::PreparedDataset& set,
                                    const char* what) {
  if (requested != 0 && requested <= set.size()) return requested;
  std::printf("%s: requested %zu, clamped to the %zu available samples\n",
              what, requested, set.size());
  return set.size();
}

/// First `n` spike vectors of a prepared dataset (n already clamped).
inline std::vector<util::BitVec> take_spikes(const data::PreparedDataset& set,
                                             std::size_t n) {
  return {set.spikes.begin(),
          set.spikes.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// First `n` labels of a prepared dataset (n already clamped).
inline std::vector<std::uint8_t> take_labels(const data::PreparedDataset& set,
                                             std::size_t n) {
  return {set.labels.begin(),
          set.labels.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// Tiny training configuration for the smoke tier: same 768-input synthetic
/// data and 10 classes, one small hidden layer, a short training run, and
/// no cache file (a smoke run must never overwrite the full-model cache).
inline core::ModelConfig smoke_model_config() {
  core::ModelConfig mc;
  mc.shape = {768, 32, 10};
  mc.n_train = 800;
  mc.n_test = 200;
  mc.train.epochs = 2;
  mc.cache_path.clear();
  return mc;
}

/// Prints the Table 1 context every experiment shares.
inline void print_setup_header(const std::string& experiment) {
  const auto& t = tech::imec3nm();
  std::printf("ESAM reproduction -- %s\n", experiment.c_str());
  std::printf(
      "setup: %s, VDD = %.0f mV, Vprech = %.0f mV (single-ended ports), "
      "128x128 arrays, worst-case cell, analytic circuit model calibrated to "
      "the paper's anchors (see DESIGN.md)\n\n",
      t.name, util::in_millivolts(t.vdd),
      util::in_millivolts(t.vprech_nominal));
}

/// "x.xx (paper: y.yy)" cell helper.
inline std::string with_paper(double measured, double paper,
                              const char* fmt = "%.2f") {
  return util::fmt(fmt, measured) + " (paper: " + util::fmt(fmt, paper) + ")";
}

}  // namespace esam::bench
