// Datasets for the MNIST digit-classification evaluation (paper sec. 4.4.2).
//
// Two sources:
//  * real MNIST in IDX format, when the files are available locally;
//  * a deterministic synthetic digit generator (procedural glyph rendering
//    with affine jitter and noise) for offline environments. The generator
//    matches MNIST's input statistics where they matter to the hardware
//    numbers (~19-20 % foreground pixels after binarization); accuracy
//    figures are reported against whichever source was used (EXPERIMENTS.md
//    records the substitution).
//
// Preprocessing follows the paper: images are reduced from 784 to 768 pixels
// by removing a 2x2 block from every corner (so the first layer maps to
// exactly 6 x 128 arbiter inputs), then binarized to {-1,+1}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "esam/util/bitvec.hpp"

namespace esam::data {

/// Raw image dataset (28x28 grayscale in [0,1]).
struct Dataset {
  std::vector<std::vector<float>> images;  ///< each 784 floats in [0,1]
  std::vector<std::uint8_t> labels;        ///< 0..9

  [[nodiscard]] std::size_t size() const { return images.size(); }
};

/// Loads an IDX image/label file pair (throws std::runtime_error on format
/// errors or missing files).
Dataset load_mnist_idx(const std::string& images_path,
                       const std::string& labels_path,
                       std::size_t limit = 0);

/// Deterministic synthetic handwritten-digit generator.
Dataset generate_synthetic_digits(std::size_t count, std::uint64_t seed);

/// Removes a 2x2 pixel block from each corner: 784 -> 768 (paper sec 4.4.2).
std::vector<float> crop_corners(const std::vector<float>& image784);

/// The pixel level above which a pixel binarizes to +1 (a spike).
inline constexpr float kBinarizeThreshold = 0.5f;

/// Binarizes to {-1,+1} at `threshold`.
std::vector<float> binarize_bipolar(const std::vector<float>& image,
                                    float threshold = kBinarizeThreshold);

/// Fully prepared evaluation set: bipolar vectors + spike vectors.
struct PreparedDataset {
  std::vector<std::vector<float>> bipolar;  ///< 768-d {-1,+1}
  std::vector<util::BitVec> spikes;         ///< '+1' -> spike
  std::vector<std::uint8_t> labels;
  std::string source;  ///< "mnist-idx" or "synthetic"

  [[nodiscard]] std::size_t size() const { return labels.size(); }
  /// Mean fraction of spiking inputs (drives the hardware activity).
  [[nodiscard]] double spike_density() const;
};

/// Crops + binarizes a raw dataset (crop_corners, then binarize_bipolar at
/// kBinarizeThreshold; throws std::invalid_argument on an image that is not
/// 784 pixels).
PreparedDataset prepare(const Dataset& raw, const std::string& source);

/// Train/test pair from the default source: real MNIST if the IDX files are
/// found under $ESAM_MNIST_DIR (train-images-idx3-ubyte etc.), otherwise the
/// synthetic generator with disjoint seeds. `n_train` / `n_test` are exact
/// counts (capped at the IDX file's size): 0 means an empty split from either
/// source, unlike load_mnist_idx's `limit`. The test split does not depend on
/// `n_train`, so load_default_split(0, n, seed).test is the test split of any
/// load_default_split(m, n, seed).
struct TrainTestSplit {
  PreparedDataset train;
  PreparedDataset test;
};
TrainTestSplit load_default_split(std::size_t n_train, std::size_t n_test,
                                  std::uint64_t seed);

}  // namespace esam::data
