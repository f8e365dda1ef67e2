// Functional + costed model of one ESAM SRAM macro (array + periphery).
//
// Stores the synaptic weight bits and executes the two access patterns of
// the architecture:
//  * inference: up to `p` simultaneous row reads through the decoupled
//    single-ended ports (one per granted spike);
//  * learning: column-wise read / write through the transposed RW port
//    (4:1 muxed), or -- for the 6T baseline -- a sweep over every row.
//
// The bitcell array is held once, column-major, as the software view of
// the transposed port: column c is column_word_count() packed words, bit r
// = row r. The macro is read only by column: a column read is a word copy,
// the tile's closed-form burst copies each neuron's column as packed words,
// and the lockstep step reads a granted row as bit r of every column's
// words. While a fault map is installed the macro also keeps the
// column-major stuck-at masks and the written bits under them, so clearing
// the faults restores what was written. A stamp taken from one global
// counter changes with every mutation, so a reader can cache the columns
// and re-read only what changed.
//
// The macro counts nothing and posts no energy: the tile counts and prices
// its inference reads (inference_read_energy() each) in TileStats, the
// learner charges column_update_cost() per column update. Simulated time is
// advanced by the caller (the system simulator owns the clock).
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

  /// Injects permanent bitcell faults (yield study): stuck cells read their
  /// stuck value through every port and silently ignore writes. Passing a
  /// fresh map replaces the previous one; shape must match the geometry.
  void apply_faults(const FaultMap& map);
  /// Removes all injected faults.
  void clear_faults();
  /// Number of currently faulty cells.
  [[nodiscard]] std::size_t fault_count() const;
  /// Whether a fault map is installed (cheap; the learning path re-reads a
  /// written column only on faulty arrays).
  [[nodiscard]] bool has_faults() const { return !stuck0_cols_.empty(); }

  // --- cost-free content access (test / setup plumbing, not hardware) -------

  [[nodiscard]] bool peek(std::size_t row, std::size_t col) const;
  void poke(std::size_t row, std::size_t col, bool value);
  /// Loads a full weight matrix (row-major, rows x cols), cost-free.
  void load(const std::vector<BitVec>& rows);

  // --- column-major cell array -----------------------------------------------

  /// Packed words of the fault-masked column `col` (column_word_count()
  /// words, bit r = row r; bits past the last row are zero). Unchecked.
  [[nodiscard]] const std::uint64_t* column_words(std::size_t col) const {
    return observed_cols_.data() + col * col_words_;
  }
  [[nodiscard]] std::size_t column_word_count() const { return col_words_; }
  /// Changes with every mutation of the observed or written bits; equal
  /// stamps mean equal contents (a copy keeps its source's stamp).
  [[nodiscard]] std::uint64_t stamp() const { return stamp_; }

  // --- inference port --------------------------------------------------------

  /// Energy of one inference row read through a decoupled port. The tile
  /// reads granted rows from column_words() and prices each read with it.
  [[nodiscard]] util::Energy inference_read_energy() const {
    return inference_read_energy_;
  }

  // --- RW port (learning path) -----------------------------------------------

  /// Reads a full column (fault-masked) through the transposed port
  /// (multiport cells: col_mux accesses) or -- for the 6T baseline -- by
  /// sweeping all rows. The call itself charges nothing: the learner prices
  /// it with column_update_cost(), and clone resync and layer export use it
  /// as free setup access.
  [[nodiscard]] BitVec read_column(std::size_t col) const;

  /// Writes a full column; stuck cells keep their stuck value. Charges
  /// nothing itself, like read_column.
  void write_column(std::size_t col, const BitVec& bits);

  /// Total (time, energy) of updating one full column of weights, as in
  /// sec. 4.4.1: transposed cells do col_mux reads + col_mux writes; the 6T
  /// baseline does rows reads + rows writes. Pure query, no state change.
  [[nodiscard]] OpProfile column_update_cost() const;

 private:
  void check_row(std::size_t row) const;
  void check_col(std::size_t col) const;
  /// The raw written bits: written_cols_ under a fault map, otherwise the
  /// one array, observed_cols_.
  std::vector<std::uint64_t>& written();
  /// Re-derives observed words [begin, end) from the written bits and the
  /// masks, and takes a new stamp.
  void observe(std::size_t begin, std::size_t end);

  SramTimingModel timing_;
  /// Cached timing_.inference_row_read_energy(): the timing model is
  /// immutable after construction and the analytic recompute (wire RC,
  /// bitline caps) dominated the per-read hot path.
  util::Energy inference_read_energy_;
  /// Words per column of the column-major arrays: ceil(rows / 64).
  std::size_t col_words_;
  /// The cell array as every port observes it, column-major: column c at
  /// [c * col_words_, +col_words_). On a fault-free macro this is the one
  /// copy of the stored bits.
  std::vector<std::uint64_t> observed_cols_;
  /// Fault-recovery state, laid out like observed_cols_ and empty when no
  /// faults are injected: the stuck-at masks and the bits last written
  /// under them (what clear_faults() restores).
  std::vector<std::uint64_t> stuck0_cols_;
  std::vector<std::uint64_t> stuck1_cols_;
  std::vector<std::uint64_t> written_cols_;
  std::uint64_t stamp_;
};

}  // namespace esam::sram
