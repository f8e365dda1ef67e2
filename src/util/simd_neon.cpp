// NEON backend (AArch64). Compiled only when CMake targets an ARM64
// machine; NEON is architecturally guaranteed there, so no runtime CPU
// check is needed beyond the build-time gate.
#include "esam/util/simd.hpp"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

#include <bit>

namespace esam::util::simd {
namespace {

std::size_t neon_count(const std::uint64_t* w, std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t v = vreinterpretq_u8_u64(vld1q_u64(w + i));
    total += vaddvq_u8(vcntq_u8(v));  // <= 128 set bits per vector
  }
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(w[i]));
  return total;
}

std::size_t neon_and_count(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    total += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
  }
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

std::size_t neon_xor_count(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    total += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
  }
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

template <typename Op128, typename Op64>
void bulk_op(std::uint64_t* a, const std::uint64_t* b, std::size_t n,
             Op128 op128, Op64 op64) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(a + i, op128(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) a[i] = op64(a[i], b[i]);
}

void neon_and_assign(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  bulk_op(
      a, b, n, [](uint64x2_t x, uint64x2_t y) { return vandq_u64(x, y); },
      [](std::uint64_t x, std::uint64_t y) { return x & y; });
}

void neon_or_assign(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  bulk_op(
      a, b, n, [](uint64x2_t x, uint64x2_t y) { return vorrq_u64(x, y); },
      [](std::uint64_t x, std::uint64_t y) { return x | y; });
}

void neon_xor_assign(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  bulk_op(
      a, b, n, [](uint64x2_t x, uint64x2_t y) { return veorq_u64(x, y); },
      [](std::uint64_t x, std::uint64_t y) { return x ^ y; });
}

void neon_andnot_assign(std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) {
  // vbicq_u64(x, y) computes x & ~y.
  bulk_op(
      a, b, n, [](uint64x2_t x, uint64x2_t y) { return vbicq_u64(x, y); },
      [](std::uint64_t x, std::uint64_t y) { return x & ~y; });
}

/// No NEON Adam kernel: the step runs the scalar reference, which is
/// bit-identical by definition.
void neon_adam_step(float* p, float* m, float* v, const float* g,
                    std::size_t n, const AdamStep& s) {
  scalar_kernels().adam_step(p, m, v, g, n, s);
}

constexpr Kernels kNeonTable{
    "neon",              neon_count,
    neon_and_count,      neon_xor_count,
    neon_and_assign,     neon_or_assign,
    neon_xor_assign,     neon_andnot_assign,
    neon_adam_step,
};

}  // namespace

namespace detail {
const Kernels* neon_table() { return &kNeonTable; }
}  // namespace detail

}  // namespace esam::util::simd

#else  // no NEON

namespace esam::util::simd::detail {
const Kernels* neon_table() { return nullptr; }
}  // namespace esam::util::simd::detail

#endif
