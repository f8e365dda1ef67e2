#include "esam/nn/bnn.hpp"

#include "esam/nn/packed.hpp"
#include "esam/util/crc32.hpp"
#include "esam/util/fp_env.hpp"
#include "esam/util/parallel.hpp"
#include "esam/util/simd.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace esam::nn {
namespace {

/// Writes the deployed +-1 weights of `n` latent weights into `wb` as
/// floats, the row operands of the backward's transposed product.
void binarize_into(const float* latent, std::size_t n, float* wb) {
  for (std::size_t i = 0; i < n; ++i) wb[i] = latent[i] >= 0.0f ? 1.0f : -1.0f;
}

/// Four floats in one SSE / NEON register (GCC and Clang vector extension).
using Float4 = float __attribute__((vector_size(16)));

/// out[c] = sum over i < n, in order, of coef[i] * rows[i][c], for
/// c < width, each sum starting at +0.0f. Both backward products are such
/// sums over +-1 rows: coef * row[c] is +-coef, exact, so every out[c] sees
/// the float additions of the per-sample outer-product / transposed-product
/// loops in their order (those skip zero coefficients, as callers here do;
/// a +-0 term could not change a sum that starts at +0 anyway). Blocks of
/// 32 columns keep their partial sums in eight vector registers.
void weighted_rows(const float* const* rows, const float* coef,
                   std::size_t n, std::size_t width, float* out) {
  constexpr std::size_t kVecs = 8;
  constexpr std::size_t kBlock = 4 * kVecs;
  std::size_t c = 0;
  for (; c + kBlock <= width; c += kBlock) {
    Float4 acc[kVecs] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const Float4 d = {coef[i], coef[i], coef[i], coef[i]};
      const float* row = rows[i] + c;
      for (std::size_t k = 0; k < kVecs; ++k) {
        Float4 r;
        std::memcpy(&r, row + 4 * k, sizeof r);
        acc[k] += d * r;
      }
    }
    std::memcpy(out + c, acc, sizeof acc);
  }
  for (; c < width; ++c) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i) acc += coef[i] * rows[i][c];
    out[c] = acc;
  }
}

/// Grains of the trainer's phases: samples per run in the forward, and
/// rows (or samples) per run in the backward and Adam phases.
constexpr std::size_t kSampleGrain = 4;
constexpr std::size_t kRowGrain = 16;

/// Calls fn(worker, i) for every i in [0, n) on all cores, through
/// util::parallel_for: each worker claims runs of `grain` consecutive
/// indices, so outputs that share a cache line (neighbouring rows of
/// packed signs, short score rows) are written by one worker, and computes
/// them under its own util::FlushDenormals, since the float mode is per
/// thread.
template <typename Fn>
void for_each_index(std::size_t n, std::size_t grain, const Fn& fn) {
  util::parallel_for((n + grain - 1) / grain, 0,
                     [&](std::size_t worker, std::size_t run) {
                       const util::FlushDenormals no_subnormals;
                       const std::size_t end = std::min(n, (run + 1) * grain);
                       for (std::size_t i = run * grain; i < end; ++i) {
                         fn(worker, i);
                       }
                     });
}

/// Routes a progress line to the configured sink (stderr by default; the
/// library keeps stdout clean for whoever embeds it).
void emit_progress(const TrainConfig& cfg, const std::string& line) {
  if (cfg.log_sink != nullptr) {
    cfg.log_sink(line, cfg.log_ctx);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

__attribute__((format(printf, 1, 2)))
std::string format_line(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string s(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(s.data(), s.size() + 1, fmt, args);
  va_end(args);
  return s;
}

/// Width of `net`'s input layer; an empty network has none.
std::size_t input_width(const BnnNetwork& net, const char* who) {
  if (net.layers().empty()) {
    throw std::invalid_argument(std::string(who) + ": empty network");
  }
  return net.layers().front().in_features();
}

/// Throws std::invalid_argument naming `sample` unless `x` has `width`
/// entries, each exactly -1.0f or +1.0f (anything else would give scores
/// the converted SNN cannot reproduce).
void require_bipolar(const std::vector<float>& x, std::size_t width,
                     const char* who, std::size_t sample) {
  if (x.size() != width) {
    throw std::invalid_argument(format_line(
        "%s: sample %zu has %zu inputs, expected %zu", who, sample, x.size(),
        width));
  }
  // Branch-free scan first (it vectorizes); locate the culprit only on
  // failure.
  bool ok = true;
  for (float v : x) ok &= (v == 1.0f) | (v == -1.0f);
  if (ok) return;
  for (std::size_t i = 0; i < width; ++i) {
    if (x[i] != 1.0f && x[i] != -1.0f) {
      throw std::invalid_argument(
          format_line("%s: sample %zu input %zu is %g, not +-1", who, sample,
                      i, static_cast<double>(x[i])));
    }
  }
}

}  // namespace

float sign_activation(float x) { return x >= 0.0f ? 1.0f : -1.0f; }

BnnLayer::BnnLayer(std::size_t out, std::size_t in, util::Rng& rng) {
  latent = Matrix(out, in);
  bias.assign(out, 0.0f);
  // Small uniform init keeps early sign flips cheap (latent near zero).
  const float scale = 1.0f / std::sqrt(static_cast<float>(in));
  for (auto& w : latent.flat()) {
    w = static_cast<float>(rng.uniform(-scale, scale));
  }
}

float BnnLayer::binary_weight(std::size_t out, std::size_t in) const {
  return latent.at(out, in) >= 0.0f ? 1.0f : -1.0f;
}

BnnNetwork::BnnNetwork(const std::vector<std::size_t>& shape, util::Rng& rng) {
  if (shape.size() < 2) {
    throw std::invalid_argument("BnnNetwork: shape needs >= 2 entries");
  }
  layers_.reserve(shape.size() - 1);
  for (std::size_t l = 0; l + 1 < shape.size(); ++l) {
    layers_.emplace_back(shape[l + 1], shape[l], rng);
  }
}

std::vector<std::size_t> BnnNetwork::shape() const {
  std::vector<std::size_t> s;
  if (layers_.empty()) return s;
  s.push_back(layers_.front().in_features());
  for (const auto& l : layers_) s.push_back(l.out_features());
  return s;
}

std::size_t BnnNetwork::predict(const std::vector<float>& x) const {
  const char* who = "BnnNetwork::predict";
  const std::size_t width = input_width(*this, who);
  require_bipolar(x, width, who, 0);
  std::vector<std::uint64_t> bits(packed_words(width));
  pack_signs(x.data(), width, bits.data());
  return PackedBnn(*this).predict(bits.data());
}

double BnnNetwork::accuracy(const std::vector<std::vector<float>>& xs,
                            const std::vector<std::uint8_t>& ys) const {
  const char* who = "BnnNetwork::accuracy";
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument(std::string(who) + ": bad dataset");
  }
  const std::size_t width = input_width(*this, who);
  const PackedBnn packed(*this);
  std::vector<std::uint64_t> bits(packed_words(width));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    require_bipolar(xs[i], width, who, i);
    pack_signs(xs[i].data(), width, bits.data());
    if (packed.predict(bits.data()) == ys[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

namespace {
// Model-cache container v2: {magic u64, payload_size u64, crc32 u32,
// reserved u32} followed by the payload {n_layers u64, per layer out/in u64
// pairs + latent + bias floats}. v1 had no checksum, so a torn write by a
// concurrent process passed the shape-only validation; v2 caches carry a
// CRC-32 over the whole payload and v1 files are rejected (one retrain
// rewrites them).
constexpr std::uint64_t kCacheMagicV2 = 0x45534d42'4e4e0002ULL;  // "ESMBNN" v2
// A damaged size field must not drive a huge allocation before the CRC runs.
constexpr std::uint64_t kMaxCachePayload = 1ULL << 32;
}  // namespace

bool BnnNetwork::save(const std::string& path) const {
  // Serialize into one buffer so the CRC covers everything after the header.
  std::vector<std::uint8_t> payload;
  const auto append = [&payload](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    payload.insert(payload.end(), b, b + n);
  };
  const std::uint64_t n_layers = layers_.size();
  append(&n_layers, sizeof n_layers);
  for (const auto& l : layers_) {
    const std::uint64_t out = l.out_features();
    const std::uint64_t in = l.in_features();
    append(&out, sizeof out);
    append(&in, sizeof in);
    append(l.latent.flat().data(), l.latent.size() * sizeof(float));
    append(l.bias.data(), l.bias.size() * sizeof(float));
  }

  // Write to a pid-unique sibling temp file and rename into place: rename
  // within one directory is atomic on POSIX, so concurrent readers (parallel
  // ctest smoke targets sharing the default cache path) observe either the
  // previous complete cache or the new one, never a torn mix.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    const std::uint64_t payload_size = payload.size();
    const std::uint32_t crc = util::crc32(payload.data(), payload.size());
    const std::uint32_t reserved = 0;
    f.write(reinterpret_cast<const char*>(&kCacheMagicV2),
            sizeof kCacheMagicV2);
    f.write(reinterpret_cast<const char*>(&payload_size), sizeof payload_size);
    f.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    f.write(reinterpret_cast<const char*>(&reserved), sizeof reserved);
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    f.close();
    if (!f) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool BnnNetwork::load(const std::string& path, BnnNetwork& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::uint64_t magic = 0, payload_size = 0;
  std::uint32_t crc = 0, reserved = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof magic);
  f.read(reinterpret_cast<char*>(&payload_size), sizeof payload_size);
  f.read(reinterpret_cast<char*>(&crc), sizeof crc);
  f.read(reinterpret_cast<char*>(&reserved), sizeof reserved);
  if (!f || magic != kCacheMagicV2 || payload_size < sizeof(std::uint64_t) ||
      payload_size > kMaxCachePayload) {
    return false;
  }
  std::vector<std::uint8_t> payload(payload_size);
  f.read(reinterpret_cast<char*>(payload.data()),
         static_cast<std::streamsize>(payload.size()));
  if (!f || util::crc32(payload.data(), payload.size()) != crc) return false;

  // The CRC passed, so the payload is exactly what save() wrote; the bounds
  // checks below only guard against a cache written by a future format.
  std::size_t pos = 0;
  const auto take = [&payload, &pos](void* dst, std::size_t n) {
    if (n > payload.size() - pos) return false;
    std::memcpy(dst, payload.data() + pos, n);
    pos += n;
    return true;
  };
  std::uint64_t n_layers = 0;
  if (!take(&n_layers, sizeof n_layers) || n_layers == 0 || n_layers > 64) {
    return false;
  }
  BnnNetwork net;
  net.layers_.resize(n_layers);
  for (auto& l : net.layers_) {
    std::uint64_t o = 0, i = 0;
    if (!take(&o, sizeof o) || !take(&i, sizeof i)) return false;
    if (o == 0 || i == 0 || o > (1u << 20) || i > (1u << 20)) return false;
    l.latent = Matrix(o, i);
    l.bias.assign(o, 0.0f);
    if (!take(l.latent.flat().data(), l.latent.size() * sizeof(float)) ||
        !take(l.bias.data(), l.bias.size() * sizeof(float))) {
      return false;
    }
  }
  if (pos != payload.size()) return false;
  out = std::move(net);
  return true;
}

BnnTrainer::BnnTrainer(BnnNetwork& net, TrainConfig cfg)
    : net_(&net), cfg_(cfg), rng_(cfg.seed) {
  if (cfg.batch_size == 0) {
    throw std::invalid_argument("BnnTrainer: batch_size must be > 0");
  }
  const std::size_t n_layers = net.layers().size();
  z_.resize(n_layers);
  dz_.resize(n_layers);
  act_.resize(n_layers);
  wb_.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    const BnnLayer& layer = net.layers()[l];
    m_w_.emplace_back(layer.out_features(), layer.in_features());
    v_w_.emplace_back(layer.out_features(), layer.in_features());
    m_b_.emplace_back(layer.out_features(), 0.0f);
    v_b_.emplace_back(layer.out_features(), 0.0f);
    grad_w_.emplace_back(layer.out_features(), layer.in_features());
    grad_b_.emplace_back(layer.out_features(), 0.0f);
    if (l > 0) wb_[l] = Matrix(layer.out_features(), layer.in_features());
  }
  scratch_.resize(util::resolve_workers(0, util::kMaxWorkers));
}

BnnTrainer::~BnnTrainer() = default;

std::vector<std::uint64_t> BnnTrainer::pack_dataset(
    const std::vector<std::vector<float>>& xs,
    const std::vector<std::uint8_t>& ys) const {
  const char* who = "BnnTrainer";
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument(std::string(who) + ": bad dataset");
  }
  const std::size_t width = input_width(*net_, who);
  const std::size_t classes = net_->layers().back().out_features();
  const std::size_t words = packed_words(width);
  std::vector<std::uint64_t> packed(xs.size() * words);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    require_bipolar(xs[i], width, who, i);
    if (ys[i] >= classes) {
      throw std::invalid_argument(format_line(
          "%s: sample %zu label %u is not below %zu classes", who, i,
          static_cast<unsigned>(ys[i]), classes));
    }
    pack_signs(xs[i].data(), width, packed.data() + i * words);
  }
  return packed;
}

void BnnTrainer::train_batch(const std::vector<std::vector<float>>& xs,
                             const std::vector<std::uint64_t>& packed_xs,
                             const std::vector<std::uint8_t>& ys,
                             const std::vector<std::size_t>& idx,
                             std::size_t begin, std::size_t end,
                             double& loss_sum) {
  // Decayed Adam moments would otherwise go subnormal and stall x86 on
  // every touch. This guard covers the serial steps; the float mode is per
  // thread, so for_each_index opens one in each worker. The caller's mode
  // is back before run_epoch logs progress.
  const util::FlushDenormals no_subnormals;
  auto& layers = net_->layers();
  const std::size_t n_layers = layers.size();
  const std::size_t batch = end - begin;
  for (std::size_t l = 0; l < n_layers; ++l) {
    z_[l].resize(batch * packed_[l].out);
    dz_[l].resize(batch * packed_[l].out);
    if (l > 0) act_[l].resize(batch * packed_[l].in);
  }
  loss_.resize(batch);

  // Forward and softmax per sample, on packed signs.
  const std::size_t classes = packed_.back().out;
  const float temp =
      std::sqrt(static_cast<float>(layers.back().in_features()));
  for_each_index(batch, kSampleGrain, [&](std::size_t w, std::size_t s) {
    std::vector<std::uint64_t>& bits = scratch_[w].bits;
    const std::size_t sample = idx[begin + s];
    const std::uint64_t* in = packed_xs.data() + sample * packed_[0].words;
    for (std::size_t l = 0; l < n_layers; ++l) {
      const std::size_t out = packed_[l].out;
      float* z = z_[l].data() + s * out;
      packed_[l].forward(in, z);
      if (l + 1 == n_layers) break;
      float* a = act_[l + 1].data() + s * out;
      for (std::size_t j = 0; j < out; ++j) a[j] = sign_activation(z[j]);
      // The packed signs feed the next layer only; forward() is done with
      // `in`, so one buffer serves every layer.
      bits.resize(packed_[l + 1].words);
      pack_signs(a, out, bits.data());
      in = bits.data();
    }

    // Softmax cross-entropy on the last pre-activations. Binary-weight
    // logits are integer-scaled sums with magnitudes ~ fan-in, which would
    // saturate the softmax; a temperature of sqrt(fan_in) restores useful
    // gradients without changing the argmax (deployment uses raw scores).
    const float* logits = z_[n_layers - 1].data() + s * classes;
    float* dz = dz_[n_layers - 1].data() + s * classes;
    const std::uint8_t label = ys[sample];
    const float zmax = *std::max_element(logits, logits + classes);
    double denom = 0.0;
    for (std::size_t j = 0; j < classes; ++j) {
      denom += std::exp(static_cast<double>((logits[j] - zmax) / temp));
    }
    const double logp =
        static_cast<double>((logits[label] - zmax) / temp) - std::log(denom);
    loss_[s] = -logp;
    for (std::size_t j = 0; j < classes; ++j) {
      const double p =
          std::exp(static_cast<double>((logits[j] - zmax) / temp)) / denom;
      dz[j] = static_cast<float>(p) - (j == label ? 1.0f : 0.0f);
    }
  });
  for (std::size_t s = 0; s < batch; ++s) loss_sum += loss_[s];

  // Backward one layer at a time, with STE through the sign activations.
  // The STE window scales with sqrt(fan_in), the natural magnitude of the
  // +-1-weighted sums (a +-1 window would zero nearly all hidden
  // gradients). Every gradient element is a weighted_rows sum over the
  // nonzero dZ entries in the order the per-sample loop added them. Index
  // j < out is weight row j (and grad_b[j]); index out + s is sample s's
  // dA and STE mask. Both read only dz_[l].
  for (std::size_t l = n_layers; l-- > 0;) {
    const std::size_t in = layers[l].in_features();
    const std::size_t out = layers[l].out_features();
    const float* dz = dz_[l].data();
    const auto input = [&](std::size_t s) {
      return l == 0 ? xs[idx[begin + s]].data() : act_[l].data() + s * in;
    };
    const float ste_clip =
        l == 0 ? 0.0f
               : std::sqrt(static_cast<float>(layers[l - 1].in_features()));
    const std::size_t samples = l == 0 ? 0 : batch;
    for_each_index(out + samples, kRowGrain, [&](std::size_t w, std::size_t i) {
      WorkerScratch& ws = scratch_[w];
      ws.term_rows.clear();
      ws.term_coefs.clear();
      if (i < out) {
        const std::size_t j = i;
        float grad_b = 0.0f;
        for (std::size_t s = 0; s < batch; ++s) {
          const float d = dz[s * out + j];
          grad_b += d;
          if (d == 0.0f) continue;
          ws.term_rows.push_back(input(s));
          ws.term_coefs.push_back(d);
        }
        grad_b_[l][j] = grad_b;
        weighted_rows(ws.term_rows.data(), ws.term_coefs.data(),
                      ws.term_rows.size(), in, grad_w_[l].row_data(j));
        return;
      }
      const std::size_t s = i - out;
      for (std::size_t j = 0; j < out; ++j) {
        const float d = dz[s * out + j];
        if (d == 0.0f) continue;
        ws.term_rows.push_back(wb_[l].row_data(j));
        ws.term_coefs.push_back(d);
      }
      float* da = dz_[l - 1].data() + s * in;
      weighted_rows(ws.term_rows.data(), ws.term_coefs.data(),
                    ws.term_rows.size(), in, da);
      const float* z = z_[l - 1].data() + s * in;
      for (std::size_t c = 0; c < in; ++c) {
        da[c] = std::fabs(z[c]) <= ste_clip ? da[c] : 0.0f;
      }
    });
  }

  // Adam step per latent row (clipped to [-1, 1]), element-wise, so any
  // split is exact. The row's new signs then go into packed_ and wb_ for
  // the next batch. Index i is row i - first[l] of the layer l whose rows
  // [first[l], first[l + 1]) hold it. The biases (unclipped) follow, one
  // short call per layer.
  ++step_;
  util::simd::AdamStep adam{};
  adam.grad_scale = 1.0f / static_cast<float>(batch);
  adam.beta1 = cfg_.adam_beta1;
  adam.beta2 = cfg_.adam_beta2;
  adam.correction1 = 1.0f - std::pow(adam.beta1, static_cast<float>(step_));
  adam.correction2 = 1.0f - std::pow(adam.beta2, static_cast<float>(step_));
  adam.learning_rate = cfg_.learning_rate;
  adam.eps = cfg_.adam_eps;
  adam.clip = 1.0f;
  const auto adam_step = util::simd::active().adam_step;
  std::vector<std::size_t> first(n_layers + 1, 0);
  for (std::size_t l = 0; l < n_layers; ++l) {
    first[l + 1] = first[l] + layers[l].out_features();
  }
  for_each_index(first.back(), kRowGrain, [&](std::size_t, std::size_t i) {
    const std::size_t l = static_cast<std::size_t>(
        std::upper_bound(first.begin(), first.end(), i) - first.begin() - 1);
    const std::size_t j = i - first[l];
    BnnLayer& layer = layers[l];
    const std::size_t in = layer.in_features();
    float* latent = layer.latent.row_data(j);
    adam_step(latent, m_w_[l].row_data(j), v_w_[l].row_data(j),
              grad_w_[l].row_data(j), in, adam);
    PackedLayer& packed = packed_[l];
    pack_signs(latent, in, packed.rows.data() + j * packed.words);
    if (l > 0) binarize_into(latent, in, wb_[l].row_data(j));
  });
  adam.clip = std::numeric_limits<float>::infinity();
  for (std::size_t l = 0; l < n_layers; ++l) {
    adam_step(layers[l].bias.data(), m_b_[l].data(), v_b_[l].data(),
              grad_b_[l].data(), grad_b_[l].size(), adam);
    packed_[l].bias = layers[l].bias;
  }
}

double BnnTrainer::train_epoch(const std::vector<std::vector<float>>& xs,
                               const std::vector<std::uint8_t>& ys) {
  const std::vector<std::uint64_t> packed_xs = pack_dataset(xs, ys);
  return run_epoch(xs, packed_xs, ys);
}

double BnnTrainer::run_epoch(const std::vector<std::vector<float>>& xs,
                             const std::vector<std::uint64_t>& packed_xs,
                             const std::vector<std::uint8_t>& ys) {
  std::vector<std::size_t> idx(xs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng_.shuffle(idx);
  // The deployed weights of the network as it is now; train_batch keeps
  // them in step from here on.
  packed_.clear();
  for (std::size_t l = 0; l < net_->layers().size(); ++l) {
    const BnnLayer& layer = net_->layers()[l];
    packed_.emplace_back(layer);
    if (l > 0) {
      binarize_into(layer.latent.flat().data(), layer.latent.size(),
                    wb_[l].flat().data());
    }
  }

  double loss_sum = 0.0;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < idx.size(); begin += cfg_.batch_size) {
    const std::size_t end = std::min(begin + cfg_.batch_size, idx.size());
    train_batch(xs, packed_xs, ys, idx, begin, end, loss_sum);
    ++batches;
    if (cfg_.log_every != 0 && batches % cfg_.log_every == 0) {
      emit_progress(cfg_,
                    format_line("  batch %zu/%zu  mean loss %.4f", batches,
                                (idx.size() + cfg_.batch_size - 1) /
                                    cfg_.batch_size,
                                loss_sum / static_cast<double>(end)));
    }
  }
  return loss_sum / static_cast<double>(xs.size());
}

double BnnTrainer::fit(const std::vector<std::vector<float>>& xs,
                       const std::vector<std::uint8_t>& ys) {
  const std::vector<std::uint64_t> packed_xs = pack_dataset(xs, ys);
  double loss = 0.0;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    loss = run_epoch(xs, packed_xs, ys);
    if (cfg_.log_every != 0) {
      emit_progress(cfg_, format_line("epoch %zu/%zu  loss %.4f", e + 1,
                                      cfg_.epochs, loss));
    }
  }
  return loss;
}

}  // namespace esam::nn
