// Dense row-major float storage for BNN latent weights, Adam moments and
// gradients. It holds no arithmetic: the forward runs on packed sign bits
// (esam/nn/packed.hpp) and the trainer's blocked backward and the Adam
// kernel work on the flat storage (src/nn/bnn.cpp).
#pragma once

#include <cstddef>
#include <vector>

namespace esam::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float* row_data(std::size_t r) {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const float* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] std::vector<float>& flat() { return data_; }
  [[nodiscard]] const std::vector<float>& flat() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace esam::nn
