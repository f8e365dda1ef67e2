// Differential tests for the runtime-dispatched SIMD kernel backends
// (include/esam/util/simd.hpp): every available backend must be bit-exact
// against the portable scalar reference on randomized inputs, including
// tail-word widths, empty and all-ones vectors -- the modelled numbers must
// never depend on which backend executed; the float Adam kernel is held to
// the same bit-exactness on NaN latents, +-0, clamp edges and subnormal
// moments. Also pins backend parsing / selection and the word-parallel
// arbiter fast path against the structural priority-encoder cascade.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "esam/arbiter/arbiter.hpp"
#include "esam/util/bitvec.hpp"
#include "esam/util/rng.hpp"
#include "esam/util/simd.hpp"

namespace esam::util::simd {
namespace {

/// Restores the process-wide active backend on scope exit so backend-
/// switching tests cannot leak their selection into later tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend()) {}
  ~BackendGuard() { set_active_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend saved_;
};

std::vector<Backend> nonscalar_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (available(b)) out.push_back(b);
  }
  return out;
}

/// Word patterns covering the interesting cases: random, empty, all-ones,
/// and a sparse pattern (the arbiter/row vectors are usually sparse).
std::vector<std::uint64_t> make_words(std::size_t n, Rng& rng, int pattern) {
  std::vector<std::uint64_t> w(n, 0);
  for (auto& x : w) {
    switch (pattern) {
      case 0: x = rng.next_u64(); break;
      case 1: x = 0; break;
      case 2: x = ~std::uint64_t{0}; break;
      default: x = rng.next_u64() & rng.next_u64() & rng.next_u64(); break;
    }
  }
  return w;
}

const std::size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 33};

TEST(Simd, ScalarTableAlwaysAvailable) {
  EXPECT_TRUE(available(Backend::kScalar));
  EXPECT_NE(kernels_for(Backend::kScalar), nullptr);
  EXPECT_STREQ(scalar_kernels().name, "scalar");
}

TEST(Simd, CountAndAndCountMatchScalar) {
  const Kernels& ref = scalar_kernels();
  Rng rng(401);
  // The fused xor_count equals count() of the materialized a ^ b.
  for (std::size_t n : kWordCounts) {
    const auto a = make_words(n, rng, 0);
    const auto c = make_words(n, rng, 3);
    auto x = c;
    ref.xor_assign(x.data(), a.data(), n);
    EXPECT_EQ(ref.xor_count(a.data(), c.data(), n), ref.count(x.data(), n))
        << "n=" << n;
  }
  for (Backend b : nonscalar_backends()) {
    const Kernels& k = *kernels_for(b);
    for (std::size_t n : kWordCounts) {
      for (int pa = 0; pa < 4; ++pa) {
        for (int pb = 0; pb < 4; ++pb) {
          const auto a = make_words(n, rng, pa);
          const auto c = make_words(n, rng, pb);
          EXPECT_EQ(k.count(a.data(), n), ref.count(a.data(), n))
              << backend_name(b) << " count, n=" << n;
          EXPECT_EQ(k.and_count(a.data(), c.data(), n),
                    ref.and_count(a.data(), c.data(), n))
              << backend_name(b) << " and_count, n=" << n;
          EXPECT_EQ(k.xor_count(a.data(), c.data(), n),
                    ref.xor_count(a.data(), c.data(), n))
              << backend_name(b) << " xor_count, n=" << n;
        }
      }
    }
  }
}

TEST(Simd, BulkBooleanOpsMatchScalar) {
  const Kernels& ref = scalar_kernels();
  Rng rng(402);
  for (Backend b : nonscalar_backends()) {
    const Kernels& k = *kernels_for(b);
    using Op = void (*const Kernels::*)(std::uint64_t*, const std::uint64_t*,
                                        std::size_t);
    const Op ops[] = {&Kernels::and_assign, &Kernels::or_assign,
                      &Kernels::xor_assign, &Kernels::andnot_assign};
    for (Op op : ops) {
      for (std::size_t n : kWordCounts) {
        for (int pat = 0; pat < 4; ++pat) {
          const auto a0 = make_words(n, rng, 0);
          const auto o = make_words(n, rng, pat);
          auto got = a0;
          auto want = a0;
          (k.*op)(got.data(), o.data(), n);
          (ref.*op)(want.data(), o.data(), n);
          EXPECT_EQ(got, want) << backend_name(b) << ", n=" << n;
        }
      }
    }
  }
}

TEST(Simd, AdamStepMatchesScalar) {
  // Every lane case the trainer can meet: +-0 gradients and moments, NaN
  // and +-inf latents (std::clamp passes NaN through), latents on and just
  // past the clip edges, subnormal moments and gradients, and an unclipped
  // (bias) step; sizes cover the vector tails. Moments and gradients stay
  // finite, as in training, so a NaN lane has one NaN operand and its
  // payload is defined.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min() * 3.0f;
  const float edge = std::nextafter(1.0f, 2.0f);
  const std::vector<float> finite{0.0f, -0.0f, 1.0f,   -1.0f,  edge,
                                  -edge, sub,  -sub,  1e-30f, -1e-30f};
  std::vector<float> latents = finite;
  latents.insert(latents.end(), {nan, -nan, inf, -inf});
  const Kernels& ref = scalar_kernels();
  Rng rng(406);
  const auto pick = [&](const std::vector<float>& specials, float scale) {
    if (rng.bernoulli(0.25)) {
      return specials[rng.uniform_index(specials.size())];
    }
    return static_cast<float>(rng.uniform(-scale, scale));
  };
  for (Backend b : nonscalar_backends()) {
    const Kernels& k = *kernels_for(b);
    for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 15u, 16u, 17u, 67u}) {
      for (float clip : {1.0f, inf}) {
        AdamStep s{};
        s.grad_scale = 1.0f / 64.0f;
        s.beta1 = 0.9f;
        s.beta2 = 0.999f;
        s.correction1 = 1.0f - std::pow(0.9f, 37.0f);
        s.correction2 = 1.0f - std::pow(0.999f, 37.0f);
        s.learning_rate = 3e-3f;
        s.eps = 1e-8f;
        s.clip = clip;
        std::vector<float> p(n), m(n), v(n), g(n);
        for (std::size_t i = 0; i < n; ++i) {
          p[i] = pick(latents, 1.2f);
          m[i] = pick(finite, 1e-2f);
          // Second moments are never negative in training.
          v[i] = std::fabs(pick(finite, 1e-4f));
          g[i] = pick(finite, 4.0f);
        }
        auto p2 = p, m2 = m, v2 = v;
        k.adam_step(p.data(), m.data(), v.data(), g.data(), n, s);
        ref.adam_step(p2.data(), m2.data(), v2.data(), g.data(), n, s);
        const auto bits = [](const std::vector<float>& x) {
          std::vector<std::uint32_t> out;
          for (float f : x) out.push_back(std::bit_cast<std::uint32_t>(f));
          return out;
        };
        EXPECT_EQ(bits(p), bits(p2)) << backend_name(b) << ", n=" << n;
        EXPECT_EQ(bits(m), bits(m2)) << backend_name(b) << ", n=" << n;
        EXPECT_EQ(bits(v), bits(v2)) << backend_name(b) << ", n=" << n;
      }
    }
  }
}

TEST(Simd, AdamStepClampsLikeStdClamp) {
  // Scalar-reference semantics (the differential test above transfers them
  // to every backend): a zero step leaves p = clamp(p, -clip, clip) with
  // NaN passing through; clip = +inf clamps nothing.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  AdamStep s{};
  s.grad_scale = 1.0f;
  s.beta1 = 0.9f;
  s.beta2 = 0.999f;
  s.correction1 = 0.1f;
  s.correction2 = 0.001f;
  s.learning_rate = 1e-3f;
  s.eps = 1e-8f;
  s.clip = 1.0f;
  std::vector<float> p{2.0f, -3.0f, 0.5f, nan, -0.0f};
  std::vector<float> m(p.size(), 0.0f), v(p.size(), 0.0f), g(p.size(), 0.0f);
  scalar_kernels().adam_step(p.data(), m.data(), v.data(), g.data(),
                             p.size(), s);
  EXPECT_EQ(p[0], 1.0f);
  EXPECT_EQ(p[1], -1.0f);
  EXPECT_EQ(p[2], 0.5f);
  EXPECT_TRUE(std::isnan(p[3]));
  EXPECT_TRUE(std::signbit(p[4]));
  s.clip = inf;
  p = {2.0f, -3.0f};
  scalar_kernels().adam_step(p.data(), m.data(), v.data(), g.data(), 2, s);
  EXPECT_EQ(p[0], 2.0f);
  EXPECT_EQ(p[1], -3.0f);
}

TEST(Simd, BitVecOpsIdenticalAcrossBackends) {
  // End-to-end through the BitVec dispatch layer, at widths exercising the
  // partial tail word.
  BackendGuard guard;
  Rng rng(405);
  for (std::size_t width : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{65}, std::size_t{127}, std::size_t{128},
                            std::size_t{130}, std::size_t{1000}}) {
    BitVec a(width);
    BitVec b(width);
    for (std::size_t i = 0; i < width; ++i) {
      if (rng.bernoulli(0.4)) a.set(i);
      if (rng.bernoulli(0.4)) b.set(i);
    }
    ASSERT_TRUE(set_active_backend(Backend::kScalar));
    const std::size_t count_s = a.count();
    const std::size_t and_count_s = a.and_count(b);
    const BitVec and_s = a & b;
    BitVec andnot_s = a;
    andnot_s.andnot_assign(b);
    for (Backend bk : nonscalar_backends()) {
      ASSERT_TRUE(set_active_backend(bk));
      EXPECT_EQ(a.count(), count_s) << backend_name(bk);
      EXPECT_EQ(a.and_count(b), and_count_s) << backend_name(bk);
      EXPECT_EQ(a & b, and_s) << backend_name(bk);
      BitVec an = a;
      an.andnot_assign(b);
      EXPECT_EQ(an, andnot_s) << backend_name(bk);
    }
  }
}

TEST(Simd, ParseAndNames) {
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("neon"), Backend::kNeon);
  EXPECT_EQ(parse_backend("sse9"), std::nullopt);
  EXPECT_EQ(parse_backend(""), std::nullopt);
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kNeon), "neon");
}

TEST(Simd, SetActiveBackend) {
  BackendGuard guard;
  EXPECT_TRUE(set_active_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_STREQ(active_backend_name(), "scalar");
  for (Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (available(b)) {
      EXPECT_TRUE(set_active_backend(b));
      EXPECT_EQ(active_backend(), b);
    } else {
      // Unavailable selection is refused and leaves the active table alone.
      const Backend before = active_backend();
      EXPECT_FALSE(set_active_backend(b));
      EXPECT_EQ(active_backend(), before);
    }
  }
}

TEST(Simd, ActiveTableMatchesActiveBackend) {
  EXPECT_STREQ(active().name, backend_name(active_backend()));
}

}  // namespace
}  // namespace esam::util::simd

namespace esam::arbiter {
namespace {

/// Reference arbitration: the structural cascade of p 1-port priority
/// encoders, evaluated with the actual PriorityEncoder. The word-packed
/// fast path in MultiPortArbiter::arbitrate_into must grant identically.
std::vector<std::size_t> encoder_cascade(const util::BitVec& pending,
                                         std::size_t ports,
                                         EncoderTopology topology) {
  PriorityEncoder enc(pending.size(), topology);
  std::vector<std::size_t> rows;
  util::BitVec remaining = pending;
  for (std::size_t p = 0; p < ports; ++p) {
    const EncodeResult r = enc.encode(remaining);
    if (r.no_request) break;
    rows.push_back(r.grant_index);
    remaining = r.remaining;
  }
  return rows;
}

TEST(ArbiterDifferential, FastPathMatchesEncoderCascade) {
  util::Rng rng(406);
  for (EncoderTopology topo :
       {EncoderTopology::kFlat, EncoderTopology::kTree}) {
    for (std::size_t width : {std::size_t{16}, std::size_t{65},
                              std::size_t{128}, std::size_t{200}}) {
      for (std::size_t ports : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        MultiPortArbiter arb(width, ports);
        for (int trial = 0; trial < 20; ++trial) {
          util::BitVec pending(width);
          const double density = trial % 3 == 0 ? 0.02 : 0.3;
          for (std::size_t i = 0; i < width; ++i) {
            if (rng.bernoulli(density)) pending.set(i);
          }
          const auto want = encoder_cascade(pending, ports, topo);
          arb.reset();
          arb.request(pending);
          GrantSet got;
          arb.arbitrate_into(got);
          EXPECT_EQ(got.rows, want) << "width=" << width << " p=" << ports;
          EXPECT_EQ(got.r_empty_after, pending.count() == want.size());
        }
      }
    }
  }
}

}  // namespace
}  // namespace esam::arbiter
