#include "esam/nn/bnn.hpp"

#include "esam/nn/packed.hpp"
#include "esam/util/crc32.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace esam::nn {
namespace {

/// Materializes the binarized weights of a layer for the backward's
/// transposed products (hot loops want a flat array, not a per-element
/// branch).
Matrix binarize(const Matrix& latent) {
  Matrix wb(latent.rows(), latent.cols());
  const auto& src = latent.flat();
  auto& dst = wb.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i] >= 0.0f ? 1.0f : -1.0f;
  }
  return wb;
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
  for (const auto& l : net.layers()) {
    m_w_.emplace_back(l.out_features(), l.in_features());
    v_w_.emplace_back(l.out_features(), l.in_features());
    m_b_.emplace_back(l.out_features(), 0.0f);
    v_b_.emplace_back(l.out_features(), 0.0f);
  }
}

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
  auto& layers = net_->layers();
  const std::size_t n_layers = layers.size();

  // Weights reused across the batch: packed signs for the forward, float
  // +-1 matrices for the backward's transposed products (layer 0's are
  // never needed: the backward stops at its weight gradient).
  const PackedBnn packed_net(*net_);
  const std::vector<PackedLayer>& packed = packed_net.layers();
  std::vector<Matrix> wb(n_layers);
  for (std::size_t l = 1; l < n_layers; ++l) {
    wb[l] = binarize(layers[l].latent);
  }

  std::vector<Matrix> grad_w;
  std::vector<std::vector<float>> grad_b;
  for (const auto& l : layers) {
    grad_w.emplace_back(l.out_features(), l.in_features());
    grad_b.emplace_back(l.out_features(), 0.0f);
  }

  // Forward buffers: pre-activations z[l] of layer l, and the hidden
  // activations a[l] / their packed signs bits[l] that feed layer l >= 1
  // (layer 0 reads the sample itself).
  std::vector<std::vector<float>> z(n_layers), a(n_layers);
  std::vector<std::vector<std::uint64_t>> bits(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    z[l].resize(packed[l].out);
    if (l > 0) {
      a[l].resize(packed[l].in);
      bits[l].resize(packed[l].words);
    }
  }

  for (std::size_t s = begin; s < end; ++s) {
    const std::vector<float>& x = xs[idx[s]];
    const std::uint8_t label = ys[idx[s]];

    const std::uint64_t* in = packed_xs.data() + idx[s] * packed[0].words;
    for (std::size_t l = 0; l < n_layers; ++l) {
      packed[l].forward(in, z[l].data());
      if (l + 1 == n_layers) break;
      for (std::size_t j = 0; j < z[l].size(); ++j) {
        a[l + 1][j] = sign_activation(z[l][j]);
      }
      pack_signs(a[l + 1].data(), a[l + 1].size(), bits[l + 1].data());
      in = bits[l + 1].data();
    }

    // Softmax cross-entropy on the last pre-activations. Binary-weight
    // logits are integer-scaled sums with magnitudes ~ fan-in, which would
    // saturate the softmax; a temperature of sqrt(fan_in) restores useful
    // gradients without changing the argmax (deployment uses raw scores).
    std::vector<float>& logits = z[n_layers - 1];
    const float temp =
        std::sqrt(static_cast<float>(layers.back().in_features()));
    const float zmax = *std::max_element(logits.begin(), logits.end());
    double denom = 0.0;
    for (float v : logits) {
      denom += std::exp(static_cast<double>((v - zmax) / temp));
    }
    const double logp =
        static_cast<double>((logits[label] - zmax) / temp) - std::log(denom);
    loss_sum += -logp;

    std::vector<float> dz(logits.size());
    for (std::size_t j = 0; j < logits.size(); ++j) {
      const double p =
          std::exp(static_cast<double>((logits[j] - zmax) / temp)) / denom;
      dz[j] = static_cast<float>(p) - (j == label ? 1.0f : 0.0f);
    }

    // Backward with STE through the sign activations. The STE window scales
    // with sqrt(fan_in), the natural magnitude of the +-1-weighted sums
    // (a +-1 window would zero nearly all hidden gradients).
    for (std::size_t l = n_layers; l-- > 0;) {
      grad_w[l].add_outer(1.0f, dz, l == 0 ? x : a[l]);
      for (std::size_t j = 0; j < dz.size(); ++j) grad_b[l][j] += dz[j];
      if (l == 0) break;
      std::vector<float> da = wb[l].multiply_transposed(dz);
      const float ste_clip =
          std::sqrt(static_cast<float>(layers[l - 1].in_features()));
      dz.assign(da.size(), 0.0f);
      for (std::size_t j = 0; j < da.size(); ++j) {
        dz[j] = std::fabs(z[l - 1][j]) <= ste_clip ? da[j] : 0.0f;
      }
    }
  }

  // Adam step on the latent weights and biases; clip latents to [-1, 1].
  ++step_;
  const float b1 = cfg_.adam_beta1;
  const float b2 = cfg_.adam_beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(step_));
  const float inv_batch = 1.0f / static_cast<float>(end - begin);
  for (std::size_t l = 0; l < n_layers; ++l) {
    auto& lat = layers[l].latent.flat();
    auto& g = grad_w[l].flat();
    auto& m = m_w_[l].flat();
    auto& v = v_w_[l].flat();
    for (std::size_t i = 0; i < lat.size(); ++i) {
      const float gi = g[i] * inv_batch;
      m[i] = b1 * m[i] + (1.0f - b1) * gi;
      v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      lat[i] -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + cfg_.adam_eps);
      lat[i] = std::clamp(lat[i], -1.0f, 1.0f);
    }
    auto& bias = layers[l].bias;
    for (std::size_t j = 0; j < bias.size(); ++j) {
      const float gj = grad_b[l][j] * inv_batch;
      m_b_[l][j] = b1 * m_b_[l][j] + (1.0f - b1) * gj;
      v_b_[l][j] = b2 * v_b_[l][j] + (1.0f - b2) * gj * gj;
      const float mhat = m_b_[l][j] / bc1;
      const float vhat = v_b_[l][j] / bc2;
      bias[j] -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + cfg_.adam_eps);
    }
  }
}

double BnnTrainer::train_epoch(const std::vector<std::vector<float>>& xs,
                               const std::vector<std::uint8_t>& ys) {
  return run_epoch(xs, pack_dataset(xs, ys), ys);
}

double BnnTrainer::run_epoch(const std::vector<std::vector<float>>& xs,
                             const std::vector<std::uint64_t>& packed_xs,
                             const std::vector<std::uint8_t>& ys) {
  std::vector<std::size_t> idx(xs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng_.shuffle(idx);

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
