#include "esam/sram/macro.hpp"

#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

namespace esam::sram {
namespace {

/// Mirror stamps come from one counter, so two macros share a stamp only
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
      usable_ports_(spec.read_ports == 0 ? 1 : spec.read_ports),
      bits_(geometry.rows, BitVec(geometry.cols)),
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

BitVec SramMacro::peek_column(std::size_t col) const {
  check_col(col);
  return BitVec::from_words(geometry().rows, column_words(col));
}

BitVec SramMacro::observed_row(std::size_t row) const {
  if (stuck0_.empty()) return bits_[row];
  return (bits_[row] & ~stuck0_[row]) | stuck1_[row];
}

void SramMacro::observed_row_into(std::size_t row, BitVec& out) const {
  out.assign(bits_[row]);
  if (!stuck0_.empty()) {
    out.andnot_assign(stuck0_[row]);
    out |= stuck1_[row];
  }
}

void SramMacro::rebuild_mirror() {
  util::transpose_bits(bits_, observed_cols_.data(), col_words_);
  if (has_faults()) {
    for (std::size_t i = 0; i < observed_cols_.size(); ++i) {
      observed_cols_[i] = (observed_cols_[i] & ~stuck0_cols_[i]) |
                          stuck1_cols_[i];
    }
  }
  stamp_ = next_stamp();
}

void SramMacro::mirror_column(std::size_t col, const BitVec& bits) {
  std::uint64_t* out = observed_cols_.data() + col * col_words_;
  for (std::size_t wi = 0; wi < col_words_; ++wi) {
    std::uint64_t w = bits.word(wi);
    if (has_faults()) {
      const std::size_t i = col * col_words_ + wi;
      w = (w & ~stuck0_cols_[i]) | stuck1_cols_[i];
    }
    out[wi] = w;
  }
  stamp_ = next_stamp();
}

void SramMacro::mirror_bit(std::size_t row, std::size_t col) {
  bool v = bits_[row].test(col);
  if (has_faults()) {
    v = (v && !stuck0_[row].test(col)) || stuck1_[row].test(col);
  }
  const std::uint64_t mask = std::uint64_t{1} << (row & 63);
  std::uint64_t& w = observed_cols_[col * col_words_ + (row >> 6)];
  w = v ? (w | mask) : (w & ~mask);
  stamp_ = next_stamp();
}

void SramMacro::apply_faults(const FaultMap& map) {
  const std::size_t rows = geometry().rows;
  const std::size_t cols = geometry().cols;
  if (map.stuck_at_zero.size() != rows * cols ||
      map.stuck_at_one.size() != rows * cols) {
    throw std::invalid_argument("SramMacro::apply_faults: shape mismatch");
  }
  // Row r of the cell-major map is the bit range [r * cols, (r + 1) * cols).
  stuck0_.assign(rows, BitVec(cols));
  stuck1_.assign(rows, BitVec(cols));
  for (std::size_t r = 0; r < rows; ++r) {
    map.stuck_at_zero.slice_into(r * cols, stuck0_[r]);
    map.stuck_at_one.slice_into(r * cols, stuck1_[r]);
  }
  stuck0_cols_.assign(observed_cols_.size(), 0);
  stuck1_cols_.assign(observed_cols_.size(), 0);
  util::transpose_bits(stuck0_, stuck0_cols_.data(), col_words_);
  util::transpose_bits(stuck1_, stuck1_cols_.data(), col_words_);
  rebuild_mirror();
}

void SramMacro::clear_faults() {
  stuck0_.clear();
  stuck1_.clear();
  stuck0_cols_.clear();
  stuck1_cols_.clear();
  rebuild_mirror();
}

std::size_t SramMacro::fault_count() const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < stuck0_.size(); ++r) {
    n += stuck0_[r].count() + stuck1_[r].count();
  }
  return n;
}

void SramMacro::poke(std::size_t row, std::size_t col, bool value) {
  check_row(row);
  bits_[row].set(col, value);
  mirror_bit(row, col);
}

void SramMacro::poke_column(std::size_t col, const BitVec& bits) {
  check_col(col);
  if (bits.size() != geometry().rows) {
    throw std::invalid_argument("SramMacro::poke_column: row count mismatch");
  }
  for (std::size_t r = 0; r < geometry().rows; ++r) {
    bits_[r].set(col, bits.test(r));
  }
  mirror_column(col, bits);
}

void SramMacro::load(std::vector<BitVec> rows) {
  if (rows.size() != geometry().rows) {
    throw std::invalid_argument("SramMacro::load: row count mismatch");
  }
  for (const auto& r : rows) {
    if (r.size() != geometry().cols) {
      throw std::invalid_argument("SramMacro::load: column count mismatch");
    }
  }
  bits_ = std::move(rows);
  rebuild_mirror();
}

void SramMacro::account_inference_read(std::size_t port) {
  if (port >= usable_ports_) {
    throw std::out_of_range("SramMacro: read port " + std::to_string(port) +
                            " out of range");
  }
  ++stats_.inference_row_reads;
}

BitVec SramMacro::read_row(std::size_t port, std::size_t row) {
  check_row(row);
  account_inference_read(port);
  return observed_row(row);
}

void SramMacro::read_row_into(std::size_t port, std::size_t row, BitVec& out) {
  check_row(row);
  account_inference_read(port);
  observed_row_into(row, out);
}

BitVec SramMacro::read_column(std::size_t col) {
  BitVec out = peek_column(col);
  // Transposed cells: col_mux accesses; the 6T baseline reads every row
  // just to fish out one bit each.
  stats_.rw_read_accesses +=
      timing_.rw_port_is_columnwise() ? geometry().col_mux : geometry().rows;
  return out;
}

void SramMacro::write_column(std::size_t col, const BitVec& value) {
  check_col(col);
  if (value.size() != geometry().rows) {
    throw std::invalid_argument("SramMacro::write_column: size mismatch");
  }
  for (std::size_t r = 0; r < geometry().rows; ++r) {
    bits_[r].set(col, value.test(r));
  }
  mirror_column(col, value);
  stats_.rw_write_accesses +=
      timing_.rw_port_is_columnwise() ? geometry().col_mux : geometry().rows;
}

BitVec SramMacro::read_row_rw(std::size_t row) {
  if (timing_.rw_port_is_columnwise()) {
    throw std::logic_error(
        "SramMacro::read_row_rw: the RW port of multiport cells is "
        "column-wise; use read_column or the inference ports");
  }
  check_row(row);
  ++stats_.rw_read_accesses;
  return observed_row(row);
}

void SramMacro::write_row_rw(std::size_t row, const BitVec& value) {
  if (timing_.rw_port_is_columnwise()) {
    throw std::logic_error(
        "SramMacro::write_row_rw: the RW port of multiport cells is "
        "column-wise; use write_column");
  }
  check_row(row);
  if (value.size() != geometry().cols) {
    throw std::invalid_argument("SramMacro::write_row_rw: size mismatch");
  }
  bits_[row] = value;
  for (std::size_t c = 0; c < geometry().cols; ++c) mirror_bit(row, c);
  ++stats_.rw_write_accesses;
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
