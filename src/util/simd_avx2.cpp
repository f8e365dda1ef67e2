// AVX2 backend. This translation unit is compiled with -mavx2 (CMake adds
// it only for x86-64 builds); the dispatcher calls into it only after
// __builtin_cpu_supports("avx2") confirms the running CPU, so no AVX2
// instruction executes on older machines.
#include "esam/util/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace esam::util::simd {
namespace {

// With -mavx2 in effect, std::popcount lowers to the POPCNT instruction
// (the baseline x86-64 build falls back to a software popcount), so even
// the "scalar-looking" counting loops are a genuine backend speedup.
std::size_t avx2_count(const std::uint64_t* w, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return c;
}

std::size_t avx2_and_count(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return c;
}

std::size_t avx2_xor_count(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return c;
}

template <typename Op256, typename Op64>
void bulk_op(std::uint64_t* a, const std::uint64_t* b, std::size_t n,
             Op256 op256, Op64 op64) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i), op256(va, vb));
  }
  for (; i < n; ++i) a[i] = op64(a[i], b[i]);
}

void avx2_and_assign(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  bulk_op(
      a, b, n, [](__m256i x, __m256i y) { return _mm256_and_si256(x, y); },
      [](std::uint64_t x, std::uint64_t y) { return x & y; });
}

void avx2_or_assign(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  bulk_op(
      a, b, n, [](__m256i x, __m256i y) { return _mm256_or_si256(x, y); },
      [](std::uint64_t x, std::uint64_t y) { return x | y; });
}

void avx2_xor_assign(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  bulk_op(
      a, b, n, [](__m256i x, __m256i y) { return _mm256_xor_si256(x, y); },
      [](std::uint64_t x, std::uint64_t y) { return x ^ y; });
}

void avx2_andnot_assign(std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) {
  // _mm256_andnot_si256(y, x) computes ~y & x.
  bulk_op(
      a, b, n, [](__m256i x, __m256i y) { return _mm256_andnot_si256(y, x); },
      [](std::uint64_t x, std::uint64_t y) { return x & ~y; });
}

/// Vectorized mask expansion: broadcast each 32-bit half of the word,
/// variable-shift eight lanes so lane k holds bit (8-lane-group + k) in
/// its LSB, mask to 0/1 and add into the counters. 8 counters per
/// shift/and/add triple instead of one counter per set bit.
void avx2_accumulate_ones(const std::uint64_t* w, std::size_t n,
                          std::int32_t* ones) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i sh0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i sh1 = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
  const __m256i sh2 = _mm256_setr_epi32(16, 17, 18, 19, 20, 21, 22, 23);
  const __m256i sh3 = _mm256_setr_epi32(24, 25, 26, 27, 28, 29, 30, 31);
  for (std::size_t wi = 0; wi < n; ++wi) {
    const std::uint64_t word = w[wi];
    if (word == 0) continue;  // adds of zero; skip the memory traffic
    std::int32_t* base = ones + wi * 64;
    const __m256i lo = _mm256_set1_epi32(
        static_cast<std::int32_t>(static_cast<std::uint32_t>(word)));
    const __m256i hi = _mm256_set1_epi32(
        static_cast<std::int32_t>(static_cast<std::uint32_t>(word >> 32)));
    const __m256i shifts[4] = {sh0, sh1, sh2, sh3};
    for (int k = 0; k < 4; ++k) {
      std::int32_t* p = base + 8 * k;
      const __m256i bits =
          _mm256_and_si256(_mm256_srlv_epi32(lo, shifts[k]), one);
      const __m256i acc =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                          _mm256_add_epi32(acc, bits));
    }
    for (int k = 0; k < 4; ++k) {
      std::int32_t* p = base + 32 + 8 * k;
      const __m256i bits =
          _mm256_and_si256(_mm256_srlv_epi32(hi, shifts[k]), one);
      const __m256i acc =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                          _mm256_add_epi32(acc, bits));
    }
  }
}

constexpr Kernels kAvx2Table{
    "avx2",              avx2_count,
    avx2_and_count,      avx2_xor_count,
    avx2_and_assign,     avx2_or_assign,
    avx2_xor_assign,     avx2_andnot_assign,
    avx2_accumulate_ones,
};

}  // namespace

namespace detail {
const Kernels* avx2_table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace esam::util::simd

#else  // !defined(__AVX2__)

namespace esam::util::simd::detail {
const Kernels* avx2_table() { return nullptr; }
}  // namespace esam::util::simd::detail

#endif
