// Runtime-dispatched SIMD backends for the BitVec popcount and boolean
// kernels (the tile, SNN and packed BNN forwards each score a neuron with
// one masked or XOR popcount) and the BNN trainer's Adam step.
//
// The bit kernels operate on raw 64-bit word spans (the BitVec storage
// format: little-endian bit order within each word, tail bits beyond the
// logical width kept zero). A backend is one table of function pointers;
// the scalar table is the portable reference, and the AVX2 / NEON tables
// are compiled only when the target ISA is available at build time and
// selected at startup only when the running CPU supports it.
//
// Selection happens once, on first use: the `ESAM_SIMD` environment
// variable (`scalar`, `avx2`, `neon`) overrides auto-detection, and an
// unavailable request falls back to scalar. Tests and the CLI may switch
// the active backend explicitly via set_active_backend(); the active
// pointer is atomic so concurrent readers (batched-engine workers) always
// observe a complete table.
//
// All backends are exact drop-in replacements: for every input the result
// is bit-identical to the scalar reference (pinned by the randomized
// differential tests in tests/test_simd.cpp), so modelled numbers never
// depend on the backend. The float kernel keeps that promise because it
// uses only correctly rounded IEEE operations (mul, add, div, sqrt) in
// one fixed order, and the build forbids FMA contraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace esam::util::simd {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// One Adam step's constants (see Kernels::adam_step).
struct AdamStep {
  /// Multiplies the summed gradient (1 / batch size).
  float grad_scale;
  float beta1, beta2;
  /// Bias corrections 1 - beta^t.
  float correction1, correction2;
  float learning_rate, eps;
  /// Parameters are clamped to [-clip, clip]; +infinity clamps nothing.
  float clip;
};

/// One backend's kernel table. For the bit kernels `n` is a count of 64-bit
/// words; callers guarantee equal-length operands (BitVec enforces width
/// equality before dispatching). adam_step counts floats.
struct Kernels {
  const char* name;

  /// popcount over `n` words.
  std::size_t (*count)(const std::uint64_t* w, std::size_t n);
  /// popcount(a & b) without materializing the intermediate.
  std::size_t (*and_count)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n);
  /// popcount(a ^ b): the disagreements between two sign-bit vectors (the
  /// packed +-1 dot product of src/nn/packed.cpp).
  std::size_t (*xor_count)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n);
  /// a &= b, a |= b, a ^= b, a &= ~b.
  void (*and_assign)(std::uint64_t* a, const std::uint64_t* b, std::size_t n);
  void (*or_assign)(std::uint64_t* a, const std::uint64_t* b, std::size_t n);
  void (*xor_assign)(std::uint64_t* a, const std::uint64_t* b, std::size_t n);
  void (*andnot_assign)(std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n);
  /// Adam on `n` parameters, element-wise and in this exact order:
  ///   gi = g * grad_scale
  ///   m  = beta1 * m + (1 - beta1) * gi
  ///   v  = beta2 * v + ((1 - beta2) * gi) * gi
  ///   p  = p - (learning_rate * (m / correction1)) /
  ///            (sqrt(v / correction2) + eps)
  ///   p  = p < -clip ? -clip : (clip < p ? clip : p)   (std::clamp; NaN
  ///                                                     passes through)
  void (*adam_step)(float* p, float* m, float* v, const float* g,
                    std::size_t n, const AdamStep& s);
};

/// The portable reference table (always available).
const Kernels& scalar_kernels();

/// Table for `b`, or nullptr when that backend is not compiled in or the
/// CPU lacks the ISA. kScalar always resolves.
const Kernels* kernels_for(Backend b);

[[nodiscard]] bool available(Backend b);

/// The active table. First call selects: `ESAM_SIMD` env override if valid
/// and available, otherwise the best available backend for this CPU.
const Kernels& active();

[[nodiscard]] Backend active_backend();
[[nodiscard]] const char* active_backend_name();

/// Explicitly selects a backend (CLI --simd flag, differential tests).
/// Returns false (and leaves the selection unchanged) when unavailable.
bool set_active_backend(Backend b);

[[nodiscard]] const char* backend_name(Backend b);
/// Parses "scalar" / "avx2" / "neon".
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

namespace detail {
/// Backend tables as compiled: each simd_*.cpp translation unit returns
/// its table when built with the matching ISA and nullptr otherwise, so
/// the dispatcher can reference every backend unconditionally.
const Kernels* avx2_table();
const Kernels* neon_table();
}  // namespace detail

}  // namespace esam::util::simd
