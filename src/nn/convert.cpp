#include "esam/nn/convert.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "esam/nn/packed.hpp"
#include "esam/util/simd.hpp"

namespace esam::nn {

SnnNetwork SnnNetwork::from_bnn(const BnnNetwork& bnn) {
  SnnNetwork snn;
  snn.layers_.reserve(bnn.layers().size());
  snn.columns_.reserve(bnn.layers().size());
  for (const BnnLayer& l : bnn.layers()) {
    // The packed sign rows are the weight columns: row j, bit i = W01_ji.
    PackedLayer packed(l);
    const std::size_t in = packed.in;
    const std::size_t n_out = packed.out;
    SnnLayer out;
    out.thresholds.assign(n_out, 0);
    out.readout_offsets.assign(n_out, 0.0f);
    std::vector<BitVec> cols;
    cols.reserve(n_out);
    for (std::size_t j = 0; j < n_out; ++j) {
      cols.push_back(
          BitVec::from_words(in, packed.rows.data() + j * packed.words));
      // S_j = sum_i (2 W01_ji - 1).
      const auto s = static_cast<std::int32_t>(2 * cols.back().count()) -
                     static_cast<std::int32_t>(in);
      const double offset = (static_cast<double>(s) - l.bias[j]) / 2.0;
      out.readout_offsets[j] = static_cast<float>(offset);
      out.thresholds[j] = static_cast<std::int32_t>(std::ceil(offset));
    }
    // weight_rows is the transpose: input i's row, bit j = W01_ji.
    const std::size_t row_words = packed_words(n_out);
    std::vector<std::uint64_t> rows(in * row_words, 0);
    util::transpose_bits(cols, rows.data(), row_words);
    out.weight_rows.reserve(in);
    for (std::size_t i = 0; i < in; ++i) {
      out.weight_rows.push_back(
          BitVec::from_words(n_out, rows.data() + i * row_words));
    }
    snn.layers_.push_back(std::move(out));
    snn.columns_.push_back(std::move(packed.rows));
  }
  return snn;
}

SnnNetwork SnnNetwork::from_layers(std::vector<SnnLayer> layers) {
  if (layers.empty()) {
    throw std::invalid_argument("SnnNetwork::from_layers: no layers");
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const SnnLayer& layer = layers[l];
    const std::size_t n_out = layer.out_features();
    if (n_out == 0 || layer.in_features() == 0) {
      throw std::invalid_argument("SnnNetwork::from_layers: empty layer");
    }
    if (layer.readout_offsets.size() != n_out) {
      throw std::invalid_argument(
          "SnnNetwork::from_layers: readout_offsets size mismatch");
    }
    for (const BitVec& row : layer.weight_rows) {
      if (row.size() != n_out) {
        throw std::invalid_argument(
            "SnnNetwork::from_layers: weight row width mismatch");
      }
    }
    if (l > 0 && layer.in_features() != layers[l - 1].out_features()) {
      throw std::invalid_argument(
          "SnnNetwork::from_layers: consecutive layers do not chain");
    }
  }
  SnnNetwork snn;
  snn.columns_.reserve(layers.size());
  for (const SnnLayer& layer : layers) {
    const std::size_t words = packed_words(layer.in_features());
    std::vector<std::uint64_t>& cols = snn.columns_.emplace_back(
        layer.out_features() * words, 0);
    util::transpose_bits(layer.weight_rows, cols.data(), words);
  }
  snn.layers_ = std::move(layers);
  return snn;
}

std::vector<std::size_t> SnnNetwork::shape() const {
  std::vector<std::size_t> s;
  if (layers_.empty()) return s;
  s.push_back(layers_.front().in_features());
  for (const auto& l : layers_) s.push_back(l.out_features());
  return s;
}

std::vector<std::int32_t> SnnNetwork::accumulate(
    std::size_t layer, const BitVec& spikes) const {
  const std::uint64_t* cols = columns_.at(layer).data();
  if (spikes.size() != layers_[layer].in_features()) {
    throw std::invalid_argument("SnnNetwork::accumulate: spike width mismatch");
  }
  // Each spiking input adds +1 where its weight bit is 1 and -1 elsewhere,
  // so L_j = 2 * |spikes & col_j| - |spikes|.
  const auto and_count = util::simd::active().and_count;
  const std::size_t words = spikes.word_count();
  const auto n_spikes = static_cast<std::int32_t>(spikes.count());
  std::vector<std::int32_t> vmem(layers_[layer].out_features());
  for (std::size_t j = 0; j < vmem.size(); ++j) {
    const auto ones = static_cast<std::int32_t>(
        and_count(spikes.words().data(), cols + j * words, words));
    vmem[j] = 2 * ones - n_spikes;
  }
  return vmem;
}

BitVec SnnNetwork::fire(const SnnLayer& layer,
                        const std::vector<std::int32_t>& vmem) {
  BitVec out(layer.out_features());
  for (std::size_t j = 0; j < vmem.size(); ++j) {
    if (vmem[j] >= layer.thresholds[j]) out.set(j);
  }
  return out;
}

std::size_t SnnNetwork::predict(const BitVec& input_spikes) const {
  const Trace t = trace(input_spikes);
  return static_cast<std::size_t>(
      std::max_element(t.output_scores.begin(), t.output_scores.end()) -
      t.output_scores.begin());
}

SnnNetwork::Trace SnnNetwork::trace(const BitVec& input_spikes) const {
  if (layers_.empty()) {
    throw std::logic_error("SnnNetwork::trace: empty network");
  }
  Trace t;
  t.spikes.push_back(input_spikes);
  BitVec current = input_spikes;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::vector<std::int32_t> vmem = accumulate(l, current);
    if (l + 1 < layers_.size()) {
      current = fire(layers_[l], vmem);
      t.spikes.push_back(current);
    } else {
      t.output_vmem = vmem;
      t.output_scores.resize(vmem.size());
      for (std::size_t j = 0; j < vmem.size(); ++j) {
        t.output_scores[j] = static_cast<float>(vmem[j]) -
                             layers_[l].readout_offsets[j];
      }
    }
  }
  return t;
}

double SnnNetwork::accuracy(const std::vector<BitVec>& xs,
                            const std::vector<std::uint8_t>& ys) const {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("SnnNetwork::accuracy: bad dataset");
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (predict(xs[i]) == ys[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

std::size_t SnnNetwork::synapse_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.in_features() * l.out_features();
  return n;
}

std::size_t SnnNetwork::neuron_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.out_features();
  return n;
}

BitVec to_spikes(const std::vector<float>& bipolar) {
  BitVec spikes(bipolar.size());
  for (std::size_t i = 0; i < bipolar.size(); ++i) {
    if (bipolar[i] > 0.0f) spikes.set(i);
  }
  return spikes;
}

std::size_t weight_diff_count(const SnnLayer& a, const SnnLayer& b) {
  if (a.in_features() != b.in_features() ||
      a.out_features() != b.out_features()) {
    throw std::invalid_argument("weight_diff_count: layer shape mismatch");
  }
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.weight_rows.size(); ++i) {
    diff += (a.weight_rows[i] ^ b.weight_rows[i]).count();
  }
  return diff;
}

}  // namespace esam::nn
