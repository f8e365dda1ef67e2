// Pipeline activity tracing (extension): records per-cycle tile activity to
// a Value Change Dump (VCD) file that any waveform viewer (GTKWave etc.)
// can open -- the debugging workflow a hardware team would expect from an
// architecture simulator.
//
// Traced signals, per tile:
//   busy    (wire)    -- tile processing an inference
//   grants  (integer) -- spikes granted by the tile's arbiters this cycle
//   pending (integer) -- requests still queued after the cycle
//   fire    (wire)    -- pulses on the cycle the tile drained and fired
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "esam/util/units.hpp"

namespace esam::arch {

/// Per-tile activity sample for one clock cycle.
struct TileActivity {
  bool busy = false;
  std::uint32_t grants = 0;
  std::uint32_t pending = 0;
  bool fired = false;
};

/// Observer interface the simulator drives once per cycle.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;
  /// Called once before the first cycle with the tile count.
  virtual void begin(std::size_t tiles, util::Time clock_period) = 0;
  /// Called after every simulated cycle.
  virtual void cycle(std::uint64_t index,
                     const std::vector<TileActivity>& tiles) = 0;
  /// Called when the run completes.
  virtual void end(std::uint64_t total_cycles) = 0;
};

/// Observer that records nothing. Passing it to SystemSimulator::run selects
/// the cycle-by-cycle lockstep engine without tracing -- the differential
/// oracle for the fast engine and the reference the bench speedup ratios
/// time it against.
class NoopObserver final : public PipelineObserver {
 public:
  void begin(std::size_t, util::Time) override {}
  void cycle(std::uint64_t, const std::vector<TileActivity>&) override {}
  void end(std::uint64_t) override {}
};

/// PipelineObserver writing IEEE 1364 VCD.
class VcdTraceWriter final : public PipelineObserver {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit VcdTraceWriter(const std::string& path);

  void begin(std::size_t tiles, util::Time clock_period) override;
  void cycle(std::uint64_t index,
             const std::vector<TileActivity>& tiles) override;
  void end(std::uint64_t total_cycles) override;

  [[nodiscard]] std::uint64_t cycles_written() const { return cycles_; }

 private:
  /// Short identifier code for signal `n` (VCD uses printable ASCII).
  static std::string id_code(std::size_t n);
  void emit_sample(std::uint64_t time_ps,
                   const std::vector<TileActivity>& tiles, bool force);

  std::ofstream out_;
  std::vector<TileActivity> last_;
  double period_ps_ = 0.0;
  std::uint64_t cycles_ = 0;
  bool started_ = false;
};

}  // namespace esam::arch
