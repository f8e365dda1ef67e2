// Float BNN oracle shared by the tests: serial float dot products over the
// binarized weights, and the per-sample float backward (outer-product
// accumulation, transposed products, scalar Adam). BnnNetwork::predict /
// accuracy and BnnTrainer, which run on packed sign bits
// (esam/nn/packed.hpp), a blocked backward and the SIMD Adam kernel, must
// match it bit for bit -- scores, argmax, STE masks, gradients, losses and
// saved caches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "esam/nn/bnn.hpp"
#include "esam/util/rng.hpp"

namespace esam::oracle {

/// y = m x: one serial float dot product per row, columns in order.
inline std::vector<float> matvec(const nn::Matrix& m,
                                 const std::vector<float>& x) {
  std::vector<float> y(m.rows(), 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row_data(r);
    float acc = 0.0f;
    for (std::size_t c = 0; c < m.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

/// y = m^T x: rows with x[r] == 0 skipped, the rest added in row order.
inline std::vector<float> multiply_transposed(const nn::Matrix& m,
                                              const std::vector<float>& x) {
  if (x.size() != m.rows()) {
    throw std::invalid_argument("multiply_transposed: dimension mismatch");
  }
  std::vector<float> y(m.cols(), 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;
    const float* row = m.row_data(r);
    for (std::size_t c = 0; c < m.cols(); ++c) y[c] += xr * row[c];
  }
  return y;
}

/// m += scale * a b^T, one row at a time; rows with scale * a[r] == 0 are
/// skipped.
inline void add_outer(nn::Matrix& m, float scale, const std::vector<float>& a,
                      const std::vector<float>& b) {
  if (a.size() != m.rows() || b.size() != m.cols()) {
    throw std::invalid_argument("add_outer: dimension mismatch");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float s = scale * a[r];
    if (s == 0.0f) continue;
    float* row = m.row_data(r);
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += s * b[c];
  }
}

/// The deployed +-1 weights as floats (latent >= 0.0f -> +1).
inline nn::Matrix binarize(const nn::Matrix& latent) {
  nn::Matrix wb(latent.rows(), latent.cols());
  for (std::size_t i = 0; i < latent.size(); ++i) {
    wb.flat()[i] = latent.flat()[i] >= 0.0f ? 1.0f : -1.0f;
  }
  return wb;
}

/// z = Wb x + b.
inline std::vector<float> preactivate(const nn::BnnLayer& l,
                                      const std::vector<float>& x) {
  std::vector<float> z = matvec(binarize(l.latent), x);
  for (std::size_t j = 0; j < z.size(); ++j) z[j] += l.bias[j];
  return z;
}

/// Every layer's output (x, h1, ..., scores): sign activations on the
/// hidden layers, raw pre-activations on the last.
inline std::vector<std::vector<float>> forward_trace(
    const nn::BnnNetwork& net, const std::vector<float>& x) {
  std::vector<std::vector<float>> trace{x};
  const auto& layers = net.layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    std::vector<float> z = preactivate(layers[l], trace.back());
    if (l + 1 < layers.size()) {
      for (auto& v : z) v = nn::sign_activation(v);
    }
    trace.push_back(std::move(z));
  }
  return trace;
}

/// Class scores: the last layer's pre-activations.
inline std::vector<float> scores(const nn::BnnNetwork& net,
                                 const std::vector<float>& x) {
  return forward_trace(net, x).back();
}

/// BnnTrainer with the float per-sample forward: same shuffle, batching,
/// softmax temperature, STE window and Adam step, so fit() must leave the
/// network byte-identical to BnnTrainer::fit on the same config and data.
class FloatTrainer {
 public:
  FloatTrainer(nn::BnnNetwork& net, nn::TrainConfig cfg)
      : net_(&net), cfg_(cfg), rng_(cfg.seed) {
    for (const auto& l : net.layers()) {
      m_w_.emplace_back(l.out_features(), l.in_features());
      v_w_.emplace_back(l.out_features(), l.in_features());
      m_b_.emplace_back(l.out_features(), 0.0f);
      v_b_.emplace_back(l.out_features(), 0.0f);
    }
  }

  /// Adam moments found subnormal after a step, summed over all steps.
  [[nodiscard]] std::size_t subnormal_moments() const {
    return subnormal_moments_;
  }

  double fit(const std::vector<std::vector<float>>& xs,
             const std::vector<std::uint8_t>& ys) {
    double loss = 0.0;
    for (std::size_t e = 0; e < cfg_.epochs; ++e) {
      std::vector<std::size_t> idx(xs.size());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      rng_.shuffle(idx);
      double loss_sum = 0.0;
      for (std::size_t b = 0; b < idx.size(); b += cfg_.batch_size) {
        train_batch(xs, ys, idx, b, std::min(b + cfg_.batch_size, idx.size()),
                    loss_sum);
      }
      loss = loss_sum / static_cast<double>(xs.size());
    }
    return loss;
  }

 private:
  void train_batch(const std::vector<std::vector<float>>& xs,
                   const std::vector<std::uint8_t>& ys,
                   const std::vector<std::size_t>& idx, std::size_t begin,
                   std::size_t end, double& loss_sum) {
    auto& layers = net_->layers();
    const std::size_t n_layers = layers.size();
    std::vector<nn::Matrix> wb, grad_w;
    std::vector<std::vector<float>> grad_b;
    for (const auto& l : layers) {
      wb.push_back(binarize(l.latent));
      grad_w.emplace_back(l.out_features(), l.in_features());
      grad_b.emplace_back(l.out_features(), 0.0f);
    }

    for (std::size_t s = begin; s < end; ++s) {
      const std::uint8_t label = ys[idx[s]];
      std::vector<std::vector<float>> a(n_layers + 1), z(n_layers);
      a[0] = xs[idx[s]];
      for (std::size_t l = 0; l < n_layers; ++l) {
        z[l] = matvec(wb[l], a[l]);
        for (std::size_t j = 0; j < z[l].size(); ++j) {
          z[l][j] += layers[l].bias[j];
        }
        a[l + 1] = z[l];
        if (l + 1 < n_layers) {
          for (auto& v : a[l + 1]) v = nn::sign_activation(v);
        }
      }

      const std::vector<float>& logits = z[n_layers - 1];
      const float temp =
          std::sqrt(static_cast<float>(layers.back().in_features()));
      const float zmax = *std::max_element(logits.begin(), logits.end());
      double denom = 0.0;
      for (float v : logits) {
        denom += std::exp(static_cast<double>((v - zmax) / temp));
      }
      loss_sum -= static_cast<double>((logits[label] - zmax) / temp) -
                  std::log(denom);
      std::vector<float> dz(logits.size());
      for (std::size_t j = 0; j < logits.size(); ++j) {
        const double p =
            std::exp(static_cast<double>((logits[j] - zmax) / temp)) / denom;
        dz[j] = static_cast<float>(p) - (j == label ? 1.0f : 0.0f);
      }

      for (std::size_t l = n_layers; l-- > 0;) {
        add_outer(grad_w[l], 1.0f, dz, a[l]);
        for (std::size_t j = 0; j < dz.size(); ++j) grad_b[l][j] += dz[j];
        if (l == 0) break;
        const std::vector<float> da = multiply_transposed(wb[l], dz);
        const float ste_clip =
            std::sqrt(static_cast<float>(layers[l - 1].in_features()));
        dz.assign(da.size(), 0.0f);
        for (std::size_t j = 0; j < da.size(); ++j) {
          dz[j] = std::fabs(z[l - 1][j]) <= ste_clip ? da[j] : 0.0f;
        }
      }
    }

    ++step_;
    const float b1 = cfg_.adam_beta1;
    const float b2 = cfg_.adam_beta2;
    const float bc1 = 1.0f - std::pow(b1, static_cast<float>(step_));
    const float bc2 = 1.0f - std::pow(b2, static_cast<float>(step_));
    const float inv_batch = 1.0f / static_cast<float>(end - begin);
    const auto adam = [&](float& p, float& m, float& v, float g) {
      const float gi = g * inv_batch;
      m = b1 * m + (1.0f - b1) * gi;
      v = b2 * v + (1.0f - b2) * gi * gi;
      const float mhat = m / bc1;
      const float vhat = v / bc2;
      p -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + cfg_.adam_eps);
    };
    for (std::size_t l = 0; l < n_layers; ++l) {
      auto& lat = layers[l].latent.flat();
      for (std::size_t i = 0; i < lat.size(); ++i) {
        adam(lat[i], m_w_[l].flat()[i], v_w_[l].flat()[i],
             grad_w[l].flat()[i]);
        lat[i] = std::clamp(lat[i], -1.0f, 1.0f);
      }
      auto& bias = layers[l].bias;
      for (std::size_t j = 0; j < bias.size(); ++j) {
        adam(bias[j], m_b_[l][j], v_b_[l][j], grad_b[l][j]);
      }
      subnormal_moments_ += count_subnormal(m_w_[l].flat()) +
                            count_subnormal(v_w_[l].flat()) +
                            count_subnormal(m_b_[l]) + count_subnormal(v_b_[l]);
    }
  }

  static std::size_t count_subnormal(const std::vector<float>& v) {
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [](float x) {
          return std::fpclassify(x) == FP_SUBNORMAL;
        }));
  }

  nn::BnnNetwork* net_;
  nn::TrainConfig cfg_;
  util::Rng rng_;
  std::vector<nn::Matrix> m_w_, v_w_;
  std::vector<std::vector<float>> m_b_, v_b_;
  std::uint64_t step_ = 0;
  std::size_t subnormal_moments_ = 0;
};

}  // namespace esam::oracle
