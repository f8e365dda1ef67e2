#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "esam/util/rng.hpp"

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

namespace {

/// `s` as a JSON string literal, quotes included.
std::string json_string(const std::string& s) {
  std::string out(1, '"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// %.17g keeps every digit; non-finite values have no JSON spelling.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& what) {
  checks(1, ok ? 0 : 1, what);
}

void Report::checks(std::uint64_t n, std::uint64_t bad,
                    const std::string& what) {
  attempted_ += n;
  failed_ += bad;
  if (bad != 0) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s (%llu of %llu)\n",
                 what.c_str(), static_cast<unsigned long long>(bad),
                 static_cast<unsigned long long>(n));
  }
}

void Report::print() const {
  for (const auto& [k, v] : context_) {
    std::printf("context %-28s %s\n", k.c_str(), v.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("metric  %-36s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("checks  %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) json += ", ";
    json += json_string(m.name);
    json += ": {\"value\": ";
    json += json_number(m.value);
    json += ", \"unit\": ";
    json += json_string(m.unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Tracer::open(const std::string& name, const std::string& layer,
                 std::uint64_t request_id) {
  Record r;
  r.name = name;
  r.layer = layer;
  r.parent = current();
  r.request_id = request_id;
  r.start_s = seconds_since(kProcessStart);
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_s =
      seconds_since(kProcessStart);
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("Tracer: spans closed out of order");
  }
  stack_.pop_back();
}

void Tracer::add(const std::string& name, const std::string& layer,
                 double start_s, double end_s, std::uint64_t request_id) {
  Record r;
  r.name = name;
  r.layer = layer;
  r.parent = current();
  r.request_id = request_id;
  r.start_s = start_s;
  r.end_s = end_s;
  spans_.push_back(std::move(r));
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Record& r : spans_) {
    // Requests overlap each other; they do not eat into their phase span.
    if (r.parent >= 0 && r.request_id == 0) {
      kids[static_cast<std::size_t>(r.parent)].emplace_back(r.start_s,
                                                            r.end_s);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (auto [a, b] : iv) {
      a = std::max(a, r.start_s);
      b = std::min(b, r.end_s);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = std::max(0.0, (r.end_s - r.start_s) - covered);
  }
  return self;
}

double Tracer::layer_self_s(const std::string& layer, std::size_t first,
                            std::size_t last) const {
  const std::vector<double> self = self_times();
  double sum = 0.0;
  for (std::size_t i = first; i < std::min(last, spans_.size()); ++i) {
    if (spans_[i].layer == layer && spans_[i].request_id == 0) sum += self[i];
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::vector<double> self = self_times();
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    f << (i == 0 ? "" : ",\n") << "{\"name\": " << json_string(r.name)
      << ", \"cat\": " << json_string(r.layer)
      << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << json_number(r.start_s * 1e6)
      << ", \"dur\": " << json_number((r.end_s - r.start_s) * 1e6)
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent
      << ", \"request_id\": " << r.request_id
      << ", \"self_us\": " << json_number(self[i] * 1e6) << "}}";
  }
  f << "\n]}\n";
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p == 50.0 && xs.size() % 2 == 0) {
    return 0.5 * (xs[xs.size() / 2 - 1] + xs[xs.size() / 2]);
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return esam::util::splitmix64_mix(esam::util::splitmix64_mix(seed) ^ tag);
}

bool another_rep(std::size_t done, std::size_t min_reps,
                 Clock::time_point start, double seconds) {
  return done < min_reps || seconds_since(start) < seconds;
}

std::vector<std::size_t> paper_shape() { return {768, 256, 256, 256, 10}; }

}  // namespace perfbench
