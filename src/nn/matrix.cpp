#include "esam/nn/matrix.hpp"

namespace esam::nn {

std::vector<float> Matrix::multiply_transposed(
    const std::vector<float>& x) const {
  if (x.size() != rows_) {
    throw std::invalid_argument(
        "Matrix::multiply_transposed: dimension mismatch");
  }
  std::vector<float> y(cols_, 0.0f);
  for (std::size_t r = 0; r < rows_; ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;
    const float* row = row_data(r);
    for (std::size_t c = 0; c < cols_; ++c) y[c] += xr * row[c];
  }
  return y;
}

void Matrix::add_outer(float scale, const std::vector<float>& a,
                       const std::vector<float>& b) {
  if (a.size() != rows_ || b.size() != cols_) {
    throw std::invalid_argument("Matrix::add_outer: dimension mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const float s = scale * a[r];
    if (s == 0.0f) continue;
    float* row = row_data(r);
    for (std::size_t c = 0; c < cols_; ++c) row[c] += s * b[c];
  }
}

}  // namespace esam::nn
