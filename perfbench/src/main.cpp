// End-to-end benchmark driver for the ESAM simulator.
//
//   esam_perfbench --workload cold_report|serve_open|fleet_adapt
//                  [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 runs the workload once untraced and once traced, then the
// layer probe suite, and prints the per-layer metrics. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status is 0 only when every output check passed. See README.md.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: esam_perfbench --workload cold_report|serve_open|fleet_adapt "
    "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]";

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "esam_perfbench: %s\n%s\n", what.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view s, const char* flag) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) {
    usage_error(std::string("bad value for ") + flag + ": " + std::string(s));
  }
  return v;
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + std::string(flag));
    const std::string_view v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = parse_u64(v, "--seconds");
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(v, "--trace");
      if (t > 1) usage_error("--trace takes 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage_error("unknown option " + std::string(flag));
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  // The benchmark always runs on the in-tree synthetic digits.
  unsetenv("ESAM_MNIST_DIR");

  perfbench::Report report;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "cold_report") {
      perfbench::cold_report(args, report);
    } else if (args.workload == "serve_open") {
      perfbench::serve_open(args, report);
    } else if (args.workload == "fleet_adapt") {
      perfbench::fleet_adapt(args, report);
    } else {
      usage_error("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esam_perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
