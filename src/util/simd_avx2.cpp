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

/// Eight parameters per iteration with the scalar reference's operations
/// in its order (this TU is built without FMA, so nothing fuses); the clamp
/// is two compare+blend pairs, so a NaN parameter passes through as it does
/// through std::clamp. The tail runs the scalar reference.
void avx2_adam_step(float* p, float* m, float* v, const float* g,
                    std::size_t n, const AdamStep& s) {
  const __m256 scale = _mm256_set1_ps(s.grad_scale);
  const __m256 b1 = _mm256_set1_ps(s.beta1);
  const __m256 b2 = _mm256_set1_ps(s.beta2);
  const __m256 keep1 = _mm256_set1_ps(1.0f - s.beta1);
  const __m256 keep2 = _mm256_set1_ps(1.0f - s.beta2);
  const __m256 c1 = _mm256_set1_ps(s.correction1);
  const __m256 c2 = _mm256_set1_ps(s.correction2);
  const __m256 lr = _mm256_set1_ps(s.learning_rate);
  const __m256 eps = _mm256_set1_ps(s.eps);
  const __m256 lo = _mm256_set1_ps(-s.clip);
  const __m256 hi = _mm256_set1_ps(s.clip);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gi = _mm256_mul_ps(_mm256_loadu_ps(g + i), scale);
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(keep1, gi));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(keep2, gi), gi));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, _mm256_div_ps(mi, c1)),
        _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vi, c2)), eps));
    __m256 pi = _mm256_sub_ps(_mm256_loadu_ps(p + i), step);
    pi = _mm256_blendv_ps(pi, lo, _mm256_cmp_ps(pi, lo, _CMP_LT_OQ));
    pi = _mm256_blendv_ps(pi, hi, _mm256_cmp_ps(hi, pi, _CMP_LT_OQ));
    _mm256_storeu_ps(p + i, pi);
  }
  scalar_kernels().adam_step(p + i, m + i, v + i, g + i, n - i, s);
}

constexpr Kernels kAvx2Table{
    "avx2",              avx2_count,
    avx2_and_count,      avx2_xor_count,
    avx2_and_assign,     avx2_or_assign,
    avx2_xor_assign,     avx2_andnot_assign,
    avx2_adam_step,
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
