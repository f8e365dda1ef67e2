// Portable scalar reference backend. Every other backend must reproduce
// these results bit-for-bit (tests/test_simd.cpp).
#include <bit>

#include "esam/util/simd.hpp"

namespace esam::util::simd {
namespace {

std::size_t scalar_count(const std::uint64_t* w, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return c;
}

std::size_t scalar_and_count(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return c;
}

std::size_t scalar_xor_count(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return c;
}

void scalar_and_assign(std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] &= b[i];
}

void scalar_or_assign(std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] |= b[i];
}

void scalar_xor_assign(std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] ^= b[i];
}

void scalar_andnot_assign(std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] &= ~b[i];
}

void scalar_accumulate_ones(const std::uint64_t* w, std::size_t n,
                            std::int32_t* ones) {
  for (std::size_t wi = 0; wi < n; ++wi) {
    std::uint64_t word = w[wi];
    std::int32_t* base = ones + wi * 64;
    while (word != 0) {
      base[std::countr_zero(word)] += 1;
      word &= word - 1;
    }
  }
}

}  // namespace

const Kernels& scalar_kernels() {
  static constexpr Kernels kTable{
      "scalar",              scalar_count,
      scalar_and_count,      scalar_xor_count,
      scalar_and_assign,     scalar_or_assign,
      scalar_xor_assign,     scalar_andnot_assign,
      scalar_accumulate_ones,
  };
  return kTable;
}

}  // namespace esam::util::simd
