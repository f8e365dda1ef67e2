// Functional + costed model of one ESAM SRAM macro (array + periphery).
//
// Stores the synaptic weight bits and executes the two access patterns of
// the architecture:
//  * inference: up to `p` simultaneous row reads through the decoupled
//    single-ended ports (one per granted spike);
//  * learning: column-wise read / write through the transposed RW port
//    (4:1 muxed), or -- for the 6T baseline -- row-wise read/write.
//
// The macro keeps a column-major mirror of what every port observes (the
// fault-masked bits), the software view of the transposed port: every
// mutator updates it, so a column read is a word copy and the tile's
// closed-form burst reads each neuron's column as packed words. A stamp
// taken from one global counter changes with every mutation, so a reader
// can cache the mirror and re-read only what changed.
//
// Every access is counted in MacroStats and costed by the timing model; the
// macro posts no energy. The tile prices its inference reads with
// inference_read_energy(), the learner charges column_update_cost() per
// column update. Simulated time is advanced by the caller (the system
// simulator owns the clock).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "esam/sram/faults.hpp"
#include "esam/sram/timing.hpp"
#include "esam/util/bitvec.hpp"

namespace esam::sram {

using util::BitVec;

/// Operation counters for utilization reporting.
struct MacroStats {
  std::uint64_t inference_row_reads = 0;
  std::uint64_t rw_read_accesses = 0;
  std::uint64_t rw_write_accesses = 0;
};

class SramMacro {
 public:
  /// Builds a zero-initialized macro. Throws if the geometry violates the
  /// NBL write-assist yield rule (> 128 rows/cols, sec. 4.1) unless
  /// `allow_non_yielding` is set (used by the write-assist ablation).
  SramMacro(const TechnologyParams& tech, BitcellSpec spec,
            ArrayGeometry geometry, Voltage vprech,
            bool allow_non_yielding = false);

  [[nodiscard]] const SramTimingModel& timing() const { return timing_; }
  [[nodiscard]] const ArrayGeometry& geometry() const {
    return timing_.geometry();
  }
  [[nodiscard]] const BitcellSpec& spec() const { return timing_.spec(); }
  [[nodiscard]] const MacroStats& stats() const { return stats_; }

  /// Injects permanent bitcell faults (yield study): stuck cells read their
  /// stuck value through every port and silently ignore writes. Passing a
  /// fresh map replaces the previous one; shape must match the geometry.
  void apply_faults(const FaultMap& map);
  /// Removes all injected faults.
  void clear_faults();
  /// Number of currently faulty cells.
  [[nodiscard]] std::size_t fault_count() const;
  /// Whether a fault map is installed (cheap; the learning path skips its
  /// post-write verification rescan on pristine arrays).
  [[nodiscard]] bool has_faults() const { return !stuck0_.empty(); }

  // --- cost-free content access (test / setup plumbing, not hardware) -------

  [[nodiscard]] bool peek(std::size_t row, std::size_t col) const;
  /// Cost-free fault-masked view of one full column (what a read would
  /// observe; the learning path uses it to measure what a column write
  /// actually changed on a faulty array).
  [[nodiscard]] BitVec peek_column(std::size_t col) const;
  void poke(std::size_t row, std::size_t col, bool value);
  /// Cost-free raw store of one full column (no fault masking -- pair with
  /// peek_column to mirror another macro's *observable* column).
  void poke_column(std::size_t col, const BitVec& bits);
  /// Loads a full weight matrix (row-major, rows x cols), cost-free.
  void load(std::vector<BitVec> rows);

  // --- observed column-major mirror -----------------------------------------

  /// Packed words of the fault-masked column `col` (column_word_count()
  /// words, bit r = row r; bits past the last row are zero). Unchecked.
  [[nodiscard]] const std::uint64_t* column_words(std::size_t col) const {
    return observed_cols_.data() + col * col_words_;
  }
  [[nodiscard]] std::size_t column_word_count() const { return col_words_; }
  /// Changes with every mutation of the observed or stored bits; equal
  /// stamps mean equal contents (a copy keeps its source's stamp).
  [[nodiscard]] std::uint64_t stamp() const { return stamp_; }

  // --- inference port --------------------------------------------------------

  /// Reads one full row through decoupled port `port`; costs one row-read.
  /// `port` must be < max(1, read_ports) (the 6T baseline serves port 0
  /// through its RW port).
  BitVec read_row(std::size_t port, std::size_t row);

  /// Same access (and cost) as read_row, but writes into `out`, reusing its
  /// storage -- the simulator's per-grant hot path avoids one allocation per
  /// row read this way.
  void read_row_into(std::size_t port, std::size_t row, BitVec& out);

  /// Counts `n` inference row reads served in closed form (the tile's
  /// burst evaluator reads the mirror instead of the rows).
  void count_inference_reads(std::uint64_t n) {
    stats_.inference_row_reads += n;
  }

  /// Energy of one inference row read (the tile prices its reads with it).
  [[nodiscard]] util::Energy inference_read_energy() const {
    return inference_read_energy_;
  }

  // --- RW port (learning path) -----------------------------------------------

  /// Reads a full column through the transposed port (multiport cells:
  /// col_mux accesses) or -- for the 6T baseline -- by sweeping all rows.
  BitVec read_column(std::size_t col);

  /// Writes a full column; same access decomposition as read_column.
  void write_column(std::size_t col, const BitVec& bits);

  /// Reads / writes a full row through the RW port. Only meaningful for the
  /// 6T baseline (row-wise RW port); throws for transposed cells.
  BitVec read_row_rw(std::size_t row);
  void write_row_rw(std::size_t row, const BitVec& bits);

  /// Total (time, energy) of updating one full column of weights, as in
  /// sec. 4.4.1: transposed cells do col_mux reads + col_mux writes; the 6T
  /// baseline does rows reads + rows writes. Pure query, no state change.
  [[nodiscard]] OpProfile column_update_cost() const;

 private:
  void check_row(std::size_t row) const;
  void check_col(std::size_t col) const;
  /// Shared port validation + stats accounting of one inference row
  /// read (used by both read_row flavours).
  void account_inference_read(std::size_t port);
  /// Row content with stuck-at masking applied.
  [[nodiscard]] BitVec observed_row(std::size_t row) const;
  /// Allocation-free variant writing into `out` (same masking).
  void observed_row_into(std::size_t row, BitVec& out) const;
  /// Rebuilds the whole mirror from the stored rows and the masks.
  void rebuild_mirror();
  /// Stores `bits` (one column, unmasked) into the mirror's column `col`.
  void mirror_column(std::size_t col, const BitVec& bits);
  /// Re-derives the mirror bit at (row, col) from the stored bit.
  void mirror_bit(std::size_t row, std::size_t col);

  SramTimingModel timing_;
  /// Cached timing_.inference_row_read_energy(): the timing model is
  /// immutable after construction and the analytic recompute (wire RC,
  /// bitline caps) dominated the per-read hot path.
  util::Energy inference_read_energy_;
  /// Cached max(spec.read_ports, 1) for the per-read port check.
  std::size_t usable_ports_;
  std::vector<BitVec> bits_;  // [row] -> cols
  /// Per-row stuck-at masks; empty vectors when no faults are injected.
  std::vector<BitVec> stuck0_;
  std::vector<BitVec> stuck1_;
  /// Words per column of the column-major arrays: ceil(rows / 64).
  std::size_t col_words_;
  /// Observed bits, column-major: column c at [c * col_words_, +col_words_).
  std::vector<std::uint64_t> observed_cols_;
  /// The stuck-at masks, column-major like observed_cols_; empty when no
  /// faults are injected.
  std::vector<std::uint64_t> stuck0_cols_;
  std::vector<std::uint64_t> stuck1_cols_;
  std::uint64_t stamp_;
  MacroStats stats_;
};

}  // namespace esam::sram
