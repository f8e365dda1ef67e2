// The word-level kernels (count / and_count / bulk boolean ops) dispatch
// through util::simd so the active backend (scalar / AVX2 / NEON) serves
// every BitVec in the system; all backends are bit-identical to the
// scalar reference (tests/test_simd.cpp).
#include "esam/util/bitvec.hpp"

#include <algorithm>
#include <bit>

#include "esam/util/simd.hpp"

namespace esam::util {

BitVec BitVec::from_string(const std::string& s) {
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '1') {
      v.set(i);
    } else if (c != '0') {
      throw std::invalid_argument("BitVec::from_string: bad character");
    }
  }
  return v;
}

BitVec BitVec::from_words(std::size_t size, const std::uint64_t* words) {
  BitVec v(size);
  std::copy(words, words + v.words_.size(), v.words_.begin());
  v.trim();
  return v;
}

void BitVec::clear() {
  for (auto& w : words_) w = 0;
}

void BitVec::fill() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  trim();
}

std::size_t BitVec::count() const {
  return simd::active().count(words_.data(), words_.size());
}

bool BitVec::any() const {
  for (auto w : words_) {
    if (w != 0) return true;
  }
  return false;
}

std::size_t BitVec::find_first() const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0) {
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(words_[wi]));
    }
  }
  return size_;
}

std::size_t BitVec::find_next(std::size_t from) const {
  const std::size_t start = from + 1;
  if (start >= size_) return size_;
  std::size_t wi = start >> 6;
  std::uint64_t w = words_[wi] & (~std::uint64_t{0} << (start & 63));
  while (true) {
    if (w != 0) {
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
    }
    if (++wi == words_.size()) return size_;
    w = words_[wi];
  }
}

std::vector<std::size_t> BitVec::set_bits() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t i = find_first(); i < size_; i = find_next(i)) {
    out.push_back(i);
  }
  return out;
}

std::size_t BitVec::and_count(const BitVec& o) const {
  check_same_size(o);
  return simd::active().and_count(words_.data(), o.words_.data(),
                                  words_.size());
}

BitVec BitVec::slice(std::size_t offset, std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    throw std::out_of_range("BitVec::slice: [" + std::to_string(offset) +
                            ", " + std::to_string(offset + len) +
                            ") out of range for size " + std::to_string(size_));
  }
  BitVec out(len);
  const std::size_t word0 = offset >> 6;
  const unsigned shift = offset & 63;
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    std::uint64_t w = words_[word0 + i] >> shift;
    if (shift != 0 && word0 + i + 1 < words_.size()) {
      w |= words_[word0 + i + 1] << (64 - shift);
    }
    out.words_[i] = w;
  }
  out.trim();
  return out;
}

void BitVec::slice_into(std::size_t offset, BitVec& out) const {
  const std::size_t len = out.size_;
  if (offset > size_ || len > size_ - offset) {
    throw std::out_of_range("BitVec::slice_into: [" + std::to_string(offset) +
                            ", " + std::to_string(offset + len) +
                            ") out of range for size " + std::to_string(size_));
  }
  const std::size_t word0 = offset >> 6;
  const unsigned shift = offset & 63;
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    std::uint64_t w = words_[word0 + i] >> shift;
    if (shift != 0 && word0 + i + 1 < words_.size()) {
      w |= words_[word0 + i + 1] << (64 - shift);
    }
    out.words_[i] = w;
  }
  out.trim();
}

BitVec& BitVec::andnot_assign(const BitVec& o) {
  check_same_size(o);
  simd::active().andnot_assign(words_.data(), o.words_.data(), words_.size());
  return *this;
}

void BitVec::assign(const BitVec& o) {
  check_same_size(o);
  // A plain word copy: memcpy beats any dispatch for the short vectors on
  // the row-read hot path.
  std::copy(o.words_.begin(), o.words_.end(), words_.begin());
}

BitVec BitVec::operator&(const BitVec& o) const {
  BitVec r = *this;
  r &= o;
  return r;
}

BitVec BitVec::operator|(const BitVec& o) const {
  BitVec r = *this;
  r |= o;
  return r;
}

BitVec BitVec::operator^(const BitVec& o) const {
  BitVec r = *this;
  r ^= o;
  return r;
}

BitVec BitVec::operator~() const {
  BitVec r = *this;
  for (auto& w : r.words_) w = ~w;
  r.trim();
  return r;
}

BitVec& BitVec::operator&=(const BitVec& o) {
  check_same_size(o);
  simd::active().and_assign(words_.data(), o.words_.data(), words_.size());
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  check_same_size(o);
  simd::active().or_assign(words_.data(), o.words_.data(), words_.size());
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  check_same_size(o);
  simd::active().xor_assign(words_.data(), o.words_.data(), words_.size());
  return *this;
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (test(i)) s[i] = '1';
  }
  return s;
}

void BitVec::trim() {
  const std::size_t used = size_ & 63;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

namespace {

/// In-place transpose of a 64x64 bit block, a[i] bit j <-> a[j] bit i, by
/// recursive block swaps (Hacker's Delight 7-3, for LSB-first bit order).
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

void transpose_bits(const std::vector<BitVec>& rows, std::uint64_t* out,
                    std::size_t stride) {
  if (rows.empty()) return;
  const std::size_t n_rows = rows.size();
  const std::size_t n_cols = rows.front().size();
  if (stride < (n_rows + 63) / 64) {
    throw std::invalid_argument("transpose_bits: stride too small");
  }
  std::uint64_t block[64] = {};
  for (std::size_t cb = 0; cb * 64 < n_cols; ++cb) {
    for (std::size_t rb = 0; rb * 64 < n_rows; ++rb) {
      const std::size_t r_end = std::min<std::size_t>(64, n_rows - rb * 64);
      for (std::size_t i = 0; i < r_end; ++i) {
        const BitVec& row = rows[rb * 64 + i];
        if (row.size() != n_cols) {
          throw std::invalid_argument("transpose_bits: ragged rows");
        }
        block[i] = row.word(cb);
      }
      std::fill(block + r_end, block + 64, std::uint64_t{0});
      transpose64(block);
      const std::size_t c_end = std::min<std::size_t>(64, n_cols - cb * 64);
      for (std::size_t j = 0; j < c_end; ++j) {
        out[(cb * 64 + j) * stride + rb] = block[j];
      }
    }
  }
}

}  // namespace esam::util
