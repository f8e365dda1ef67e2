// One ESAM Tile (paper Fig. 2): SRAM arrays + arbiters + neuron array.
//
// A layer with I pre-synaptic inputs and O post-synaptic neurons maps to
// ceil(I/128) row-groups x ceil(O/128) column-groups of at-most-128x128
// SRAM arrays (the NBL yield rule caps arrays at 128, sec. 4.1). Each
// row-group has its own p-port arbiter over its 128 wordlines, so a
// 768-input tile can select up to 6p spikes per cycle (sec. 4.4.2). Each
// column hosts one IF neuron that sums the valid port bits from every
// row-group in the cycle; the tile holds the neuron array's Vmem and Vth
// registers as two int32 arrays (widths and rails: neuron::NeuronConfig).
//
// The tile processes one inference at a time: input spikes latch into the
// arbiters' request vectors; each clock cycle the arbiters grant up to p
// rows per row-group, the granted rows are read on the decoupled ports and
// accumulated; when every arbiter reports R_empty the neurons compare
// against their thresholds, fire, and the output spike vector is handed to
// the next tile over the binary-pulse fabric.
//
// step() models that cycle by cycle; it is the lockstep / observer path and
// the oracle, and counts each granted row r as bit r of every column of the
// macros' column-major cells, read in place (not through the column cache
// below). run_inference() computes the same burst in closed form: with Vmem
// starting at zero and no partial sum able to saturate, neuron j ends at
// 2 * |in & col_j| - |in|, one popcount per neuron over a row-group-strided
// copy of its column that the tile re-gathers only from macros whose stamp
// changed. Every event count follows from the per-row-group spike counts,
// since each arbiter grants min(pending, ports) rows per cycle; the counts
// live in TileStats alone (the macros count nothing).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "esam/arbiter/arbiter.hpp"
#include "esam/neuron/neuron.hpp"
#include "esam/nn/convert.hpp"
#include "esam/sram/macro.hpp"
#include "esam/util/ledger.hpp"

namespace esam::arch {

using tech::TechnologyParams;
using util::Area;
using util::BitVec;
using util::Energy;
using util::EnergyLedger;
using util::Power;
using util::Time;
using util::Voltage;

/// Static configuration of one tile.
struct TileConfig {
  std::size_t inputs = 128;
  std::size_t outputs = 128;
  sram::CellKind cell = sram::CellKind::k1RW4R;
  Voltage vprech = util::millivolts(500.0);
  arbiter::EncoderTopology topology = arbiter::EncoderTopology::kTree;
  std::size_t max_array_dim = 128;
  std::size_t col_mux = 4;
  neuron::NeuronConfig neuron{};
  /// Output-layer tiles expose Vmem scores instead of firing spikes.
  bool is_output_layer = false;
  /// Clock-period multiplier vs the Table 2 nominal (the low-power HVT
  /// operating point runs the same pipeline at a derated clock).
  double clock_derate = 1.0;
  /// Keep membrane potentials across start_inference() calls (multi-
  /// timestep / rate-coded operation); default resets per inference.
  bool carry_membrane = false;
};

/// Hang detector of every simulated inference: no tile may stay busy this
/// many cycles on one input (a healthy tile needs about fan-in / ports).
inline constexpr std::uint64_t kMaxBurstCycles = std::uint64_t{1} << 20;

/// A simulation that cannot finish: a hang detector fired. Derived from
/// std::logic_error, so handlers written for that still catch it.
class SimulationError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// The hang detectors' one check: throws SimulationError with `what` once
/// `cycles` exceeds `limit`.
inline void check_cycle_limit(std::uint64_t cycles, std::uint64_t limit,
                              const char* what) {
  if (cycles > limit) throw SimulationError(what);
}

/// Per-tile event counts, all integers: the tile's activity record and,
/// through Tile::price, its energy record. Integer sums commute, so counts
/// gathered on any pipeline clone, in any order, add up to the same totals.
struct TileStats {
  std::uint64_t busy_cycles = 0;
  std::uint64_t spikes_served = 0;
  std::uint64_t inferences = 0;
  std::uint64_t row_reads = 0;
  /// Spikes latched by start_inference (inter-tile fabric).
  std::uint64_t input_spikes = 0;
  /// Row-group cycles with >= 1 grant (macro control).
  std::uint64_t active_row_group_cycles = 0;
  /// Row-group arbitration cycles by pending * (ports + 1) + grants.
  std::vector<std::uint64_t> arbiter_cycles;
  /// Cycles with >= 1 grant, by the total grants over all row groups.
  std::vector<std::uint64_t> grant_cycles;
  /// Grants per row group; each grant reads one row of every column group.
  std::vector<std::uint64_t> row_group_grants;

  /// Element-wise sum; an empty histogram grows to the other's size.
  TileStats& operator+=(const TileStats& o);
  /// Element-wise difference, e.g. `after - before` of one tile.
  friend TileStats operator-(TileStats a, const TileStats& b);
  bool operator==(const TileStats&) const = default;
};

class Tile {
 public:
  /// Copies are deep (the SRAM macros with their weights and faults) and
  /// start with no ledger attached; the engines copy the pipeline to give
  /// each worker thread its own.
  Tile(const TechnologyParams& tech, TileConfig cfg);

  [[nodiscard]] const TileConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t row_groups() const { return row_groups_; }
  [[nodiscard]] std::size_t col_groups() const { return col_groups_; }
  [[nodiscard]] const TileStats& stats() const { return stats_; }

  /// Loads converted weights, thresholds and readout offsets. The whole
  /// layer is checked first -- shape, every row's width, the offsets'
  /// count, every threshold against the Vth register -- and a bad layer
  /// throws std::invalid_argument with the tile unchanged.
  void load_layer(const nn::SnnLayer& layer);

  /// Dynamic energy of `counts` (a stats delta of this tile): every event
  /// count times its unit energy, fixed at construction. Clock tree and
  /// leakage are the system's, over its cycles.
  [[nodiscard]] EnergyLedger price(const TileStats& counts) const;

  /// Each fire phase then adds price(stats since the latch) to `ledger`;
  /// nullptr detaches.
  void attach_ledger(EnergyLedger* ledger);

  // --- pipelined execution ----------------------------------------------

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] bool output_ready() const { return output_ready_; }
  /// Spike requests still queued across all row-group arbiters.
  [[nodiscard]] std::size_t pending_requests() const;

  /// Latches a new inference's input spikes (requires !busy()).
  void start_inference(const BitVec& input_spikes);

  /// Advances one clock cycle (no-op when idle).
  void step();

  /// One tile's burst on one inference, through the fire phase: the same
  /// state, outputs and TileStats as start_inference() plus step() until
  /// idle, computed in closed form. Tiles that carry membranes across
  /// inferences, or whose fan-in could saturate Vmem, step instead (and
  /// throw SimulationError past kMaxBurstCycles, the hang detector).
  /// Returns the cycles spent busy.
  std::uint64_t run_inference(const BitVec& input_spikes);
  /// Whether run_inference() takes the closed form (fixed at construction).
  [[nodiscard]] bool closed_form() const { return closed_form_; }

  /// Consumes the fired output spikes -- the downstream grant of the
  /// request bits (hidden tiles; requires output_ready).
  BitVec take_output();
  /// Same, copied into `out` (which keeps its storage when wide enough).
  void take_output_into(BitVec& out);

  /// Output-layer readout: the Vmem registers (read after the fire phase of
  /// an output-layer tile; overwritten by the next inference).
  [[nodiscard]] const std::vector<std::int32_t>& output_vmem() const {
    return vmem_;
  }
  /// Winner-take-all readout: the index of the first maximum of the
  /// offset-corrected scores float(vmem_j) - readout_offset(j).
  [[nodiscard]] std::size_t winner() const;
  /// Clears the output-ready latch after readout (output-layer tiles).
  void consume_output();

  /// Zeroes every Vmem register (new sample in carried-membrane /
  /// rate-coded operation).
  void reset_membranes();

  // --- learning-observer readout ------------------------------------------
  //
  // The per-inference pre/post spike pair plus the fire-time membrane
  // snapshot, exposed by reference so learning rules can observe every
  // forward pass without per-sample heap churn. All three live in fixed
  // storage sized at construction and are overwritten by the next inference.

  /// Input spikes of the current/most recent inference.
  [[nodiscard]] const BitVec& last_input() const { return last_input_; }
  /// Spikes fired by the most recent inference (valid after the fire phase,
  /// including after take_output; all-zero on output-layer tiles).
  [[nodiscard]] const BitVec& last_output() const { return output_spikes_; }
  /// Membrane potentials captured at the R_empty compare of the most recent
  /// inference, *before* firing neurons reset -- the WTA ranking signal.
  [[nodiscard]] const std::vector<std::int32_t>& fire_vmem() const {
    return fire_vmem_;
  }
  /// Neuron j's Vth register (thresholds for margin-based rankings).
  [[nodiscard]] std::int32_t vth(std::size_t j) const { return vth_.at(j); }

  /// Reconstructs an nn::SnnLayer from the live SRAM macros (fault-masked
  /// observable weights), current thresholds and readout offsets -- the
  /// read-back path for checkpointing/diffing weights adapted in the field.
  [[nodiscard]] nn::SnnLayer export_layer() const;

  // --- physical models ----------------------------------------------------

  /// The tile's minimum clock period: max(arbiter stage, SRAM read + neuron
  /// accumulate stage), as in Table 2.
  [[nodiscard]] Time clock_period() const;
  [[nodiscard]] Area area() const;
  [[nodiscard]] Area array_area() const;
  [[nodiscard]] Area arbiter_area() const;
  [[nodiscard]] Area neuron_area() const;
  [[nodiscard]] Power leakage() const;
  /// Pipeline/neuron/arbiter register bits driven by the clock tree.
  [[nodiscard]] std::size_t flop_count() const;

  /// Learning-path access to the underlying macros.
  [[nodiscard]] sram::SramMacro& macro(std::size_t row_group,
                                       std::size_t col_group);
  [[nodiscard]] const sram::SramMacro& macro(std::size_t row_group,
                                             std::size_t col_group) const;

  /// Learning-path readout maintenance: the stored offset (S_j - b_j)/2 is
  /// a function of neuron j's column weight sum S_j, so when a column
  /// update flips bits the learner shifts the offset along (+1 per 0->1
  /// flip) to keep winner() consistent with the new weights.
  void adjust_readout_offset(std::size_t neuron, float delta);
  [[nodiscard]] float readout_offset(std::size_t neuron) const {
    return readout_offsets_.at(neuron);
  }

  /// Cost-free clone resync: copies neuron `j`'s weight column (observable
  /// bits, per row-group) and readout offset from `src`, which must share
  /// this tile's shape. The batched training engine uses it to propagate a
  /// committed column update into per-worker tile clones without paying
  /// modelled port traffic.
  void copy_column_from(const Tile& src, std::size_t j);

 private:
  /// start_inference's checks and latches, shared with the closed form:
  /// input copy and row-group slices, membrane reset, fabric count.
  void latch(const BitVec& input_spikes);
  /// The closed-form burst on the latched input (see run_inference).
  std::uint64_t closed_form_burst();
  /// Re-gathers the columns of every macro whose stamp changed.
  void refresh_columns();
  void fire_phase();
  [[nodiscard]] std::size_t array_rows(std::size_t row_group) const;
  [[nodiscard]] std::size_t array_cols(std::size_t col_group) const;

  const TechnologyParams* tech_;
  TileConfig cfg_;
  std::size_t row_groups_;
  std::size_t col_groups_;
  /// macros_[rg * col_groups_ + cg]
  std::vector<sram::SramMacro> macros_;
  std::vector<arbiter::MultiPortArbiter> arbiters_;
  arbiter::ArbiterTimingModel arbiter_model_;
  /// The neuron array: neuron j's Vmem and Vth registers. Vmem saturates
  /// at cfg_.neuron's rails; Vth always fits its t-bit register.
  std::vector<std::int32_t> vmem_;
  std::vector<std::int32_t> vth_;
  neuron::NeuronArrayModel neuron_model_;
  std::vector<float> readout_offsets_;

  /// The attached ledger; a copy starts detached, a move keeps it.
  struct LedgerSlot {
    EnergyLedger* ledger = nullptr;
    LedgerSlot() = default;
    LedgerSlot(const LedgerSlot& /*other*/) noexcept {}
    LedgerSlot& operator=(const LedgerSlot& other) noexcept {
      if (this != &other) ledger = nullptr;
      return *this;
    }
    LedgerSlot(LedgerSlot&&) noexcept = default;
    LedgerSlot& operator=(LedgerSlot&&) noexcept = default;
  } ledger_;
  TileStats stats_;
  /// stats_ at the latch (or attach), while a ledger is attached.
  TileStats latched_;
  bool busy_ = false;
  bool output_ready_ = false;
  /// The output request registers: bit j is neuron j's request r, set by
  /// the fire phase and granted when the next tile takes the spikes
  /// (output_ready_ forces that take before the next latch).
  BitVec output_spikes_;
  /// Learning-observer state: per-inference input copy and fire-time Vmem
  /// snapshot (fixed storage, overwritten in place each inference).
  BitVec last_input_;
  std::vector<std::int32_t> fire_vmem_;
  /// One ones counter per neuron (step()'s granted rows with a 1 in that
  /// column), so the step() hot path performs no allocations.
  std::vector<std::int32_t> ones_scratch_;
  /// Reusable grant storage (arbitrate_into) and per-row-group input-slice
  /// buffers (start_inference), also allocation-free after construction.
  arbiter::GrantSet grant_scratch_;
  std::vector<BitVec> input_slice_scratch_;

  /// Closed-form burst state. columns_ holds neuron j's observed weight
  /// column at [j * column_stride_, +column_stride_), row group rg at word
  /// offset rg * rg_words_ (zero-padded), copied from the macros' column
  /// words so that one and_count spans every row group (reading the macros
  /// in place would split it into one short call per macro);
  /// column_stamps_[macro] is the macro stamp it was copied at.
  /// input_words_ lays the input out the same way.
  bool closed_form_ = false;
  std::size_t rg_words_ = 0;
  std::size_t column_stride_ = 0;
  std::vector<std::uint64_t> columns_;
  std::vector<std::uint64_t> column_stamps_;
  std::vector<std::uint64_t> input_words_;
  std::vector<std::size_t> row_group_spikes_;

  // Unit energies of the counted events, pure functions of the static
  // configuration, computed once at construction (see price).
  /// Decoder/driver + port-latch energy of one granted read, per col group.
  std::vector<Energy> row_read_extra_;
  /// Macro control energy of one cycle with >= 1 grant (all col groups).
  Energy macro_control_energy_;
  /// arbiter cycle_energy(pending, grants), flattened at stride ports + 1.
  std::vector<Energy> arb_cycle_energy_;
  std::size_t arb_ports_ = 0;
  /// neuron accumulate_energy(total_grants) * outputs, per grant count.
  std::vector<Energy> accumulate_energy_;
  /// neuron compare_energy() * outputs.
  Energy compare_energy_total_;
};

/// The fast engine's per-sample cascade walk: `input` runs down `tiles` one
/// tile at a time, each tile bursting to completion (run_inference) before
/// its fired spikes latch into the next. Weights are read, never written, so
/// the walk is independent per sample and per pipeline clone; each tile
/// counts its events in its own TileStats.
///  - busy: when non-empty, busy[t] receives tile t's burst cycles.
///  - before_handoff(t, tile): runs after tile t fires and before its output
///    is taken -- where learning rules observe the pass.
///  - handoff: caller-owned inter-tile spike buffer, reused across samples.
/// Returns the winner-take-all class: the first maximum of the output tile's
/// offset-corrected scores (Tile::winner). Allocation-free once `handoff`
/// has grown to the widest hidden output.
template <typename Hook>
std::size_t walk_cascade(std::span<Tile> tiles, const BitVec& input,
                         BitVec& handoff, std::span<std::uint64_t> busy,
                         Hook&& before_handoff) {
  const BitVec* spikes = &input;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    Tile& tile = tiles[t];
    const std::uint64_t cycles = tile.run_inference(*spikes);
    if (!busy.empty()) busy[t] = cycles;
    before_handoff(t, std::as_const(tile));
    if (t + 1 == tiles.size()) break;
    tile.take_output_into(handoff);
    spikes = &handoff;
  }
  Tile& out = tiles.back();
  const std::size_t winner = out.winner();
  out.consume_output();
  return winner;
}

}  // namespace esam::arch
