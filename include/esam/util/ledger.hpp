// Energy/time accounting shared by every hardware model in ESAM.
//
// Tiles price their integer event counts into per-category energies; the
// system simulator adds the clock tree, advances wall-clock time and
// integrates leakage. Reports then aggregate per category exactly the way
// the paper's Python flow combined Spectre/Genus numbers.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "esam/util/units.hpp"

namespace esam::util {

/// Operation categories for energy attribution.
enum class EnergyCategory : std::uint8_t {
  kSramRead,        ///< decoupled-port inference reads (precharge + sense)
  kSramWrite,       ///< transposed-port writes (incl. NBL assist)
  kSramTransRead,   ///< transposed-port reads (differential SA)
  kArbiter,         ///< arbiter switching
  kNeuron,          ///< neuron accumulate / compare / register update
  kFabric,          ///< inter-tile binary-pulse wires
  kClock,           ///< clock tree / pipeline registers
  kLearning,        ///< online-learning column updates (transposed RW port)
  kLeakage,         ///< integrated static power
  kCount
};

/// Human-readable category name.
std::string_view to_string(EnergyCategory c);

/// Accumulates energy per category plus elapsed simulated time.
/// Copyable value type; diffing two snapshots gives the cost of an interval.
class EnergyLedger {
 public:
  /// Adds dynamic energy to one category.
  void add(EnergyCategory category, Energy e) {
    by_category_[static_cast<std::size_t>(category)] += e;
  }

  /// Advances simulated wall-clock time (does not add leakage by itself).
  void advance_time(Time dt) { elapsed_ += dt; }

  /// Integrates leakage power over `dt` and advances time.
  void advance_time_with_leakage(Time dt, Power leakage) {
    elapsed_ += dt;
    by_category_[static_cast<std::size_t>(EnergyCategory::kLeakage)] +=
        leakage * dt;
  }

  [[nodiscard]] Energy energy(EnergyCategory category) const {
    return by_category_[static_cast<std::size_t>(category)];
  }

  /// Total energy over all categories (incl. leakage).
  [[nodiscard]] Energy total_energy() const;

  /// Total dynamic energy (excl. leakage).
  [[nodiscard]] Energy dynamic_energy() const;

  [[nodiscard]] Time elapsed() const { return elapsed_; }

  /// Mean power over the elapsed interval; zero if no time has elapsed.
  [[nodiscard]] Power average_power() const;

  /// Component-wise difference (this - start); for interval costing.
  [[nodiscard]] EnergyLedger since(const EnergyLedger& start) const;

  /// Component-wise sum.
  EnergyLedger& operator+=(const EnergyLedger& o);

  void reset();

 private:
  std::array<Energy, static_cast<std::size_t>(EnergyCategory::kCount)>
      by_category_{};
  Time elapsed_{};
};

}  // namespace esam::util
