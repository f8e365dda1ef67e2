// Layer probes and the serve / fleet drivers the workloads share.
//
// Every traced run reports every per-layer metric, so each workload's traced
// pass ends with the same probe suite, run on that workload's own model and
// data: it times one public call into each layer (data, nn, io, arch and
// its tiles, learning, fleet, serve) on the same inputs. Composite entry
// points of the main path (TrainedModel::create, FleetSimulator::run) get
// one span each there; their parts are timed here.
#pragma once

#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "esam/data/dataset.hpp"
#include "esam/fleet/fleet.hpp"
#include "esam/nn/bnn.hpp"
#include "esam/serve/server.hpp"

namespace perfbench {

/// Stream tags for derive_seed.
inline constexpr std::uint64_t kDataTag = 0xda7a;
inline constexpr std::uint64_t kWeightTag = 0x0b17;
inline constexpr std::uint64_t kFleetTag = 0xf1ee7;
inline constexpr std::uint64_t kArrivalTag = 0xa221;

/// serve_open and fleet_adapt deploy a model trained (untimed) on this
/// fixed seed's data, so a run's workload seed changes its inputs -- test
/// stream, arrivals, dies -- but not the quality of the model under test.
inline constexpr std::uint64_t kModelSeed = 0x5eed;

/// Trains a BNN of the paper shape on `train` with the repository's
/// default optimiser settings (BnnTrainer::fit).
[[nodiscard]] esam::nn::BnnNetwork train_bnn(
    const esam::data::PreparedDataset& train, std::size_t epochs,
    std::uint64_t seed);

// --- serve -----------------------------------------------------------------

/// Per-request measurements of one open-loop phase at a fixed rate, or of
/// the saturating closed window (rate 0).
struct ServePhase {
  double rate_rps = 0.0;
  double seconds = 0.0;  ///< measured span of the phase
  std::vector<double> latency_us;     ///< due (or submit) -> response
  std::vector<double> done_s;         ///< response, since the phase start
  std::vector<double> queue_wait_us;  ///< submit -> dispatch
  std::vector<double> service_us;     ///< dispatch -> response
  std::vector<double> late_us;        ///< generator lateness vs due time
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;      ///< refused at submit or failed future
  std::uint64_t mismatched = 0;  ///< response != offline prediction
  std::uint64_t correct = 0;     ///< response == label
  std::uint64_t batches = 0;
  std::uint64_t full_batches = 0;
  std::uint64_t served = 0;  ///< ServerStats delta over the phase
};

/// Requests in each saturating burst (64 outstanding): about 80 ms at the
/// seed's capacity.
inline constexpr std::size_t kBurstRequests = 4000;
/// Bursts before each open-loop phase and after the last one.
inline constexpr std::size_t kBurstsPerGap = 16;

/// The phases of serve_open: Poisson arrivals at 10k, 20k and 40k req/s,
/// with kBurstsPerGap saturating bursts of kBurstRequests requests that
/// measure capacity before and after each (many short samples spread over
/// the run, so disturbed stretches cannot spoil every burst).
struct ServeRun {
  ServePhase warmup;  ///< 0.1 s at 10k req/s, checked but not reported
  ServePhase at10k;
  ServePhase at20k;
  ServePhase at40k;
  std::vector<ServePhase> saturated;

  [[nodiscard]] std::vector<const ServePhase*> phases() const;
  /// Requests answered in the saturating bursts.
  [[nodiscard]] std::uint64_t saturated_requests() const;
  /// Capacity: the best completion rate over kRateWindow consecutive
  /// completions of any burst.
  [[nodiscard]] double capacity_rps() const;
};

/// The shared host slows every thread for seconds at a time, and such
/// interference only ever adds time. So the end-to-end serve figures come
/// from the least-disturbed window of a phase: the lowest
/// per-window median latency, and the highest completion rate over a run
/// of consecutive completions. Latency windows are 0.1 s (1k requests at
/// 10k req/s, so a window's median is itself steady); rate windows 500
/// completions (about 10 ms, 30 batches, at capacity).
inline constexpr double kWindowS = 0.1;
inline constexpr std::size_t kRateWindow = 500;
[[nodiscard]] double best_window_p50_us(const ServePhase& ph);
[[nodiscard]] double best_window_rate(const ServePhase& ph);

/// Offline reference for serve checks: SnnNetwork::predict per input.
[[nodiscard]] std::vector<std::size_t> offline_predictions(
    const esam::nn::SnnNetwork& snn,
    const std::vector<esam::util::BitVec>& inputs);

/// The serve_open server configuration: 2 workers, max_batch 16,
/// max_delay_us 200, startup banner silenced.
[[nodiscard]] esam::serve::ServerConfig serve_config();

/// Runs the phases against a started server. `phase_s` is the length of
/// the 20k phase; the 10k phase runs for half of it and the 40k phase (near
/// capacity, where a disturbed host builds a backlog) for a quarter.
/// Request spans go to `tracer` when non-null.
[[nodiscard]] ServeRun run_serve_phases(
    esam::serve::InferenceServer& server,
    const esam::data::PreparedDataset& test,
    const std::vector<std::size_t>& reference, double phase_s,
    std::uint64_t seed, Tracer* tracer);

/// Counts every request of every phase in the report's checks.
void check_serve(const ServeRun& run, Report& report);

/// The serve.* per-layer metrics.
void report_serve_layers(const ServeRun& run, Report& report);

// --- fleet -----------------------------------------------------------------

/// fleet_adapt's fleet: 256-sample shards, defect rate 2e-3, drift 0.25,
/// one adaptation epoch, update_interval 4.
[[nodiscard]] esam::fleet::FleetConfig fleet_config(std::uint64_t seed,
                                                    std::size_t devices,
                                                    std::size_t shard,
                                                    std::size_t workers);

/// Fields that differ between two reports, per device and in the
/// aggregates.
[[nodiscard]] std::uint64_t fleet_mismatches(
    const esam::fleet::FleetReport& a, const esam::fleet::FleetReport& b);

/// Checks a 2-worker fleet report against the 1-worker one and reports
/// fleet.worker_scaling, fleet.dies_per_s and the yields.
void report_fleet_run(const esam::fleet::FleetReport& one, double one_s,
                      const esam::fleet::FleetReport& two, double two_s,
                      Report& report);

// --- the probe suite -------------------------------------------------------

/// What the probe suite runs on, and what the main traced pass already
/// measured (so the suite does not repeat it).
struct ProbeInputs {
  const esam::nn::BnnNetwork* bnn = nullptr;
  const esam::nn::SnnNetwork* snn = nullptr;
  const esam::data::PreparedDataset* test = nullptr;
  /// Sizes the workload synthesises at set-up (data.synth_s).
  std::size_t synth_train = 0;
  std::size_t synth_test = 0;
  std::uint64_t data_seed = 0;
  /// BNN training measured by the caller (nn.train_s).
  double train_s = 0.0;
  std::size_t train_sample_epochs = 0;
  /// Fleet used by the fleet-part and learning probes.
  esam::fleet::FleetConfig fleet{};
  /// Per-die results the fleet-part probes must reproduce (null: none).
  const esam::fleet::FleetReport* fleet_reference = nullptr;
  /// Whether the suite runs its own short serve phases and small fleet;
  /// serve_open and fleet_adapt measure those in their main pass.
  bool serve = true;
  bool fleet_run = true;
};

void run_probes(const ProbeInputs& in, const Args& args, Report& report,
                Tracer& tracer);

/// Trace bookkeeping shared by every workload: tracing overhead, the share
/// of the untraced wall the main pass's spans account for, per-layer self
/// times over the whole traced run, and the span dump.
void report_trace(const Tracer& tracer, std::size_t main_first,
                  std::size_t main_last, double traced_wall_s,
                  double untraced_wall_s, const Args& args, Report& report);

/// Context every run records.
void record_context(const Args& args, const std::string& dataset_source,
                    Report& report);

}  // namespace perfbench
