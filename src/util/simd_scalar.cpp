// Portable scalar reference backend. Every other backend must reproduce
// these results bit-for-bit (tests/test_simd.cpp).
#include <algorithm>
#include <bit>
#include <cmath>

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

void scalar_adam_step(float* p, float* m, float* v, const float* g,
                      std::size_t n, const AdamStep& s) {
  const float keep1 = 1.0f - s.beta1;
  const float keep2 = 1.0f - s.beta2;
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i] * s.grad_scale;
    m[i] = s.beta1 * m[i] + keep1 * gi;
    v[i] = s.beta2 * v[i] + keep2 * gi * gi;
    const float mhat = m[i] / s.correction1;
    const float vhat = v[i] / s.correction2;
    p[i] -= s.learning_rate * mhat / (std::sqrt(vhat) + s.eps);
    p[i] = std::clamp(p[i], -s.clip, s.clip);
  }
}

}  // namespace

const Kernels& scalar_kernels() {
  static constexpr Kernels kTable{
      "scalar",              scalar_count,
      scalar_and_count,      scalar_xor_count,
      scalar_and_assign,     scalar_or_assign,
      scalar_xor_assign,     scalar_andnot_assign,
      scalar_adam_step,
  };
  return kTable;
}

}  // namespace esam::util::simd
