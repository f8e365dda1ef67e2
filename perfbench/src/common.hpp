// Shared pieces of the end-to-end benchmark driver: arguments, the metric
// report, the span tracer and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set at static initialisation, i.e. as close to process start as the
/// program can observe; the first repetition's set-up and wall time count
/// from here.
extern const Clock::time_point kProcessStart;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double seconds_since(Clock::time_point t0);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  /// Scratch files (BNN cache, checkpoint, span dump), inside the checkout.
  std::string out_dir = ".bench_build/perfbench/run";
};

/// Collects metrics and output-check outcomes; prints both at exit.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Recorded context (dataset source, SIMD backend, nproc, seed, ...).
  void context(const std::string& key, const std::string& value);
  /// One checked operation; a false `ok` counts as failed and is logged.
  void check(bool ok, const std::string& what);
  /// `n` checked operations of which `bad` failed (bulk form of check()).
  void checks(std::uint64_t n, std::uint64_t bad, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Human-readable lines, then the one-line JSON result (last line).
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder for the traced pass. A null Tracer* (the timed
/// pass) makes every Span a no-op, so the timed pass carries no
/// instrumentation beyond one pointer test per layer call.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::string layer;
    double start_s = 0.0;  ///< since kProcessStart
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t request_id = 0;  ///< serve requests; 0 otherwise
  };

  int open(const std::string& name, const std::string& layer,
           std::uint64_t request_id = 0);
  void close(int id);
  /// A span whose times were measured elsewhere (serve requests).
  void add(const std::string& name, const std::string& layer, double start_s,
           double end_s, std::uint64_t request_id);
  [[nodiscard]] const std::vector<Record>& records() const { return spans_; }

  /// Duration minus the union of its children's intervals. Request spans
  /// (request_id != 0) run concurrently, so they are left out: they neither
  /// count as children nor add self time to their layer.
  [[nodiscard]] std::vector<double> self_times() const;
  /// Sum of self times of the spans of `layer` with index in
  /// [first, last).
  [[nodiscard]] double layer_self_s(const std::string& layer,
                                    std::size_t first = 0,
                                    std::size_t last = SIZE_MAX) const;

  /// Writes every span as JSON (Chrome trace-event "X" events plus the
  /// layer, parent and request id in args).
  void write_json(const std::string& path) const;

 private:
  /// The innermost open span (-1 when none): the parent of the next one.
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  std::vector<Record> spans_;
  std::vector<int> stack_;
};

/// RAII span; no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* t, const std::string& name, const std::string& layer)
      : t_(t), id_(t != nullptr ? t->open(name, layer) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Median / nearest-rank percentile of a sample (copies and sorts).
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// getrusage maxrss in MB.
[[nodiscard]] double peak_rss_mb();

/// Seed for one named input stream of the workload (splitmix64 of the
/// workload seed and a tag), so data, weights, fleet and arrivals differ.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Repetition control: at least `min_reps`, then until `seconds` elapsed.
[[nodiscard]] bool another_rep(std::size_t done, std::size_t min_reps,
                               Clock::time_point start, double seconds);

/// The paper network shape (768:256:256:256:10): four tiles.
[[nodiscard]] std::vector<std::size_t> paper_shape();

}  // namespace perfbench
