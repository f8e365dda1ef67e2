// Dynamic fixed-width bit vector used throughout ESAM for spike request
// vectors, SRAM rows/columns, grant vectors and binary activations.
//
// Unlike std::vector<bool> it exposes word-level access, fast popcount /
// find-first, and set-bit iteration, which the arbiter and simulator loops
// rely on. Width is fixed at construction (hardware vectors do not resize).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace esam::util {

/// Fixed-width vector of bits with word-parallel operations.
/// Bit 0 is the leftmost/highest-priority position in arbiter contexts;
/// the class itself is position-agnostic.
class BitVec {
 public:
  BitVec() = default;

  /// Creates an all-zero vector of `size` bits.
  explicit BitVec(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  /// Creates a vector from a string of '0'/'1' characters, index 0 first.
  static BitVec from_string(const std::string& s);

  /// Creates a `size`-bit vector from packed words (the words() format);
  /// `words` holds at least (size + 63) / 64 words, bits past `size` drop.
  static BitVec from_words(std::size_t size, const std::uint64_t* words);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const {
    check_index(i);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Bounds-unchecked test (assert-guarded): for kernel loops whose index
  /// range was validated once at entry, where the per-call throw check of
  /// test() is measurable (priority-encoder scans, word-walk loops).
  [[nodiscard]] bool test_unchecked(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i, bool value = true) {
    check_index(i);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void reset(std::size_t i) { set(i, false); }

  /// Sets every bit to zero.
  void clear();

  /// Sets every bit to one.
  void fill();

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;

  [[nodiscard]] bool any() const;
  [[nodiscard]] bool none() const { return !any(); }

  /// Index of the lowest set bit, or `size()` if none.
  [[nodiscard]] std::size_t find_first() const;

  /// Index of the lowest set bit strictly greater than `from`, or `size()`.
  [[nodiscard]] std::size_t find_next(std::size_t from) const;

  /// Indices of all set bits in increasing order.
  [[nodiscard]] std::vector<std::size_t> set_bits() const;

  /// Invokes `f(index)` for every set bit in increasing order, word by word.
  /// The simulator hot loops use this instead of test() per position: one
  /// countr_zero per set bit instead of a bounds check + shift per bit.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        f(wi * 64 + static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
      }
    }
  }

  /// popcount(*this & o) without materializing the intermediate vector.
  [[nodiscard]] std::size_t and_count(const BitVec& o) const;

  /// Word-packed copy of `len` bits starting at `offset` (a funnel shift per
  /// output word instead of a test()/set() loop per bit). The learning path
  /// uses this to carve per-row-group pre-synaptic slices out of a tile-wide
  /// spike vector. Requires offset + len <= size().
  [[nodiscard]] BitVec slice(std::size_t offset, std::size_t len) const;

  /// Allocation-free slice: overwrites `out` (whose width selects the
  /// slice length) with the bits at [offset, offset + out.size()). The
  /// tile hot path uses this to load per-row-group arbiter requests from
  /// the tile-wide spike vector without constructing a BitVec per call.
  void slice_into(std::size_t offset, BitVec& out) const;

  /// *this &= ~o (clears every bit that is set in `o`).
  BitVec& andnot_assign(const BitVec& o);

  /// Copies `o`'s bits into this vector's existing word storage (no
  /// allocation on the hot path). Throws like every other binary operation
  /// when the widths differ: BitVec widths are fixed at construction.
  void assign(const BitVec& o);

  BitVec operator&(const BitVec& o) const;
  BitVec operator|(const BitVec& o) const;
  BitVec operator^(const BitVec& o) const;
  /// Bitwise complement within the vector's width.
  BitVec operator~() const;

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);

  bool operator==(const BitVec& o) const = default;

  /// Renders as a '0'/'1' string, index 0 first.
  [[nodiscard]] std::string to_string() const;

  /// Raw word storage (little-endian bit order within each word).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

  /// Bounds-unchecked word access (assert-guarded), for word-walk loops
  /// that validated the range once.
  [[nodiscard]] std::uint64_t word(std::size_t wi) const {
    assert(wi < words_.size());
    return words_[wi];
  }
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }

 private:
  void check_index(std::size_t i) const {
    if (i >= size_) {
      throw std::out_of_range("BitVec index " + std::to_string(i) +
                              " out of range for size " +
                              std::to_string(size_));
    }
  }
  void check_same_size(const BitVec& o) const {
    if (o.size_ != size_) {
      throw std::invalid_argument("BitVec size mismatch: " +
                                  std::to_string(size_) + " vs " +
                                  std::to_string(o.size_));
    }
  }
  /// Zeroes bits beyond `size_` in the last word (kept as invariant).
  void trim();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Transposes a row-major bit matrix (every row one width, the column count)
/// into column-major words: bit r of column c lands in bit r % 64 of
/// out[c * stride + r / 64], with stride >= ceil(rows / 64). Works in 64x64
/// blocks, not bit by bit; bits past the last row come out zero.
void transpose_bits(const std::vector<BitVec>& rows, std::uint64_t* out,
                    std::size_t stride);

}  // namespace esam::util
