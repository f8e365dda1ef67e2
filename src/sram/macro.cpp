#include "esam/sram/macro.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

#include "esam/util/simd.hpp"

namespace esam::sram {
namespace {

/// Stamps come from one counter, so two macros share a stamp only
/// when one is a copy of the other (same contents).
std::uint64_t next_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1) + 1;
}

}  // namespace

SramMacro::SramMacro(const TechnologyParams& tech, BitcellSpec spec,
                     ArrayGeometry geometry, Voltage vprech,
                     bool allow_non_yielding)
    : timing_(tech, spec, geometry, vprech),
      inference_read_energy_(timing_.inference_row_read_energy()),
      col_words_((geometry.rows + 63) / 64),
      observed_cols_(geometry.cols * col_words_, 0),
      stamp_(next_stamp()) {
  if (!allow_non_yielding && !timing_.yielding()) {
    throw std::invalid_argument(
        "SramMacro: " + std::to_string(geometry.rows) + "x" +
        std::to_string(geometry.cols) +
        " array violates the NBL write-assist yield rule (VWD < -400 mV); "
        "arrays are limited to 128 rows/columns (paper sec. 4.1)");
  }
}

bool SramMacro::peek(std::size_t row, std::size_t col) const {
  check_row(row);
  check_col(col);
  return (column_words(col)[row >> 6] >> (row & 63)) & 1u;
}

std::vector<std::uint64_t>& SramMacro::written() {
  return has_faults() ? written_cols_ : observed_cols_;
}

void SramMacro::observe(std::size_t begin, std::size_t end) {
  if (has_faults()) {
    const util::simd::Kernels& kern = util::simd::active();
    std::uint64_t* out = observed_cols_.data() + begin;
    std::copy(written_cols_.data() + begin, written_cols_.data() + end, out);
    kern.andnot_assign(out, stuck0_cols_.data() + begin, end - begin);
    kern.or_assign(out, stuck1_cols_.data() + begin, end - begin);
  }
  stamp_ = next_stamp();
}

void SramMacro::apply_faults(const FaultMap& map) {
  const std::size_t rows = geometry().rows;
  const std::size_t cols = geometry().cols;
  if (map.stuck_at_zero.size() != rows * cols ||
      map.stuck_at_one.size() != rows * cols) {
    throw std::invalid_argument("SramMacro::apply_faults: shape mismatch");
  }
  // A fault-free array observes exactly what was written.
  if (!has_faults()) written_cols_ = observed_cols_;
  // Cell (r, c) is bit r * cols + c of the cell-major map; defects are
  // sparse, so scatter the set bits instead of transposing whole rows.
  const auto scatter = [&](const BitVec& cells,
                           std::vector<std::uint64_t>& out) {
    out.assign(observed_cols_.size(), 0);
    cells.for_each_set([&](std::size_t i) {
      const std::size_t r = i / cols;
      out[(i % cols) * col_words_ + (r >> 6)] |= std::uint64_t{1} << (r & 63);
    });
  };
  scatter(map.stuck_at_zero, stuck0_cols_);
  scatter(map.stuck_at_one, stuck1_cols_);
  observe(0, observed_cols_.size());
}

void SramMacro::clear_faults() {
  if (!has_faults()) return;
  observed_cols_ = std::move(written_cols_);
  written_cols_.clear();
  stuck0_cols_.clear();
  stuck1_cols_.clear();
  stamp_ = next_stamp();
}

std::size_t SramMacro::fault_count() const {
  const util::simd::Kernels& kern = util::simd::active();
  return kern.count(stuck0_cols_.data(), stuck0_cols_.size()) +
         kern.count(stuck1_cols_.data(), stuck1_cols_.size());
}

void SramMacro::poke(std::size_t row, std::size_t col, bool value) {
  check_row(row);
  check_col(col);
  const std::size_t i = col * col_words_ + (row >> 6);
  const std::uint64_t bit = std::uint64_t{1} << (row & 63);
  std::uint64_t& w = written()[i];
  w = value ? (w | bit) : (w & ~bit);
  observe(i, i + 1);
}

void SramMacro::load(const std::vector<BitVec>& rows) {
  if (rows.size() != geometry().rows) {
    throw std::invalid_argument("SramMacro::load: row count mismatch");
  }
  for (const auto& r : rows) {
    if (r.size() != geometry().cols) {
      throw std::invalid_argument("SramMacro::load: column count mismatch");
    }
  }
  util::transpose_bits(rows, written().data(), col_words_);
  observe(0, observed_cols_.size());
}

BitVec SramMacro::read_column(std::size_t col) const {
  check_col(col);
  return BitVec::from_words(geometry().rows, column_words(col));
}

void SramMacro::write_column(std::size_t col, const BitVec& bits) {
  check_col(col);
  if (bits.size() != geometry().rows) {
    throw std::invalid_argument("SramMacro::write_column: size mismatch");
  }
  const std::size_t base = col * col_words_;
  std::copy(bits.words().begin(), bits.words().end(),
            written().begin() + static_cast<std::ptrdiff_t>(base));
  observe(base, base + col_words_);
}

OpProfile SramMacro::column_update_cost() const {
  if (timing_.rw_port_is_columnwise()) {
    const OpProfile rd = timing_.line_read();
    const OpProfile wr = timing_.line_write();
    return {rd.time + wr.time, rd.energy + wr.energy};
  }
  // 6T baseline (sec. 4.4.1): read every row, write every row; each op takes
  // a full system clock cycle.
  const double rows = static_cast<double>(geometry().rows);
  const double clock_ns = tech::calib::kTable2ArbiterNs[0];
  const OpProfile rd = timing_.rw_read_access();
  const OpProfile wr = timing_.rw_write_access();
  return {util::nanoseconds(2.0 * rows * clock_ns),
          (rd.energy + wr.energy) * rows};
}

void SramMacro::check_row(std::size_t row) const {
  if (row >= geometry().rows) {
    throw std::out_of_range("SramMacro: row " + std::to_string(row) +
                            " out of range");
  }
}

void SramMacro::check_col(std::size_t col) const {
  if (col >= geometry().cols) {
    throw std::out_of_range("SramMacro: column " + std::to_string(col) +
                            " out of range");
  }
}

}  // namespace esam::sram
