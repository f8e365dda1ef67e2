// Tests for the dataset layer: IDX parsing, synthetic generation, and the
// paper's preprocessing (784 -> 768 corner crop, binarization).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "esam/data/dataset.hpp"

namespace esam::data {
namespace {

void write_be32(std::ofstream& f, std::uint32_t v) {
  const unsigned char b[4] = {
      static_cast<unsigned char>(v >> 24), static_cast<unsigned char>(v >> 16),
      static_cast<unsigned char>(v >> 8), static_cast<unsigned char>(v)};
  f.write(reinterpret_cast<const char*>(b), 4);
}

/// Writes a tiny valid IDX pair with `n` constant-valued images.
void write_idx_pair(const std::string& img_path, const std::string& lbl_path,
                    std::uint32_t n) {
  std::ofstream fi(img_path, std::ios::binary);
  write_be32(fi, 2051);
  write_be32(fi, n);
  write_be32(fi, 28);
  write_be32(fi, 28);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<unsigned char> img(784, static_cast<unsigned char>(i * 40));
    fi.write(reinterpret_cast<const char*>(img.data()), 784);
  }
  std::ofstream fl(lbl_path, std::ios::binary);
  write_be32(fl, 2049);
  write_be32(fl, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const unsigned char label = static_cast<unsigned char>(i % 10);
    fl.write(reinterpret_cast<const char*>(&label), 1);
  }
}

TEST(MnistIdx, ParsesValidPair) {
  const std::string img = ::testing::TempDir() + "/esam_idx_images";
  const std::string lbl = ::testing::TempDir() + "/esam_idx_labels";
  write_idx_pair(img, lbl, 5);
  const Dataset d = load_mnist_idx(img, lbl);
  ASSERT_EQ(d.size(), 5u);
  EXPECT_EQ(d.labels[3], 3);
  EXPECT_NEAR(d.images[2][100], 80.0f / 255.0f, 1e-6);
}

TEST(MnistIdx, RespectsLimit) {
  const std::string img = ::testing::TempDir() + "/esam_idx_images2";
  const std::string lbl = ::testing::TempDir() + "/esam_idx_labels2";
  write_idx_pair(img, lbl, 8);
  EXPECT_EQ(load_mnist_idx(img, lbl, 3).size(), 3u);
  EXPECT_EQ(load_mnist_idx(img, lbl, 0).size(), 8u);
}

TEST(MnistIdx, RejectsMissingAndMalformed) {
  EXPECT_THROW(load_mnist_idx("/no/such/file", "/no/such/file2"),
               std::runtime_error);
  const std::string img = ::testing::TempDir() + "/esam_idx_badmagic";
  {
    std::ofstream f(img, std::ios::binary);
    write_be32(f, 1234);  // wrong magic
  }
  const std::string lbl = ::testing::TempDir() + "/esam_idx_labels3";
  write_idx_pair(::testing::TempDir() + "/esam_idx_ok", lbl, 1);
  EXPECT_THROW(load_mnist_idx(img, lbl), std::runtime_error);
}

TEST(Synthetic, DeterministicForSeed) {
  const Dataset a = generate_synthetic_digits(20, 99);
  const Dataset b = generate_synthetic_digits(20, 99);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.images[7], b.images[7]);
  const Dataset c = generate_synthetic_digits(20, 100);
  EXPECT_NE(a.images[7], c.images[7]);
}

/// 64-bit FNV-1a over `n` bytes, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Synthetic, GoldenBytes) {
  // Pins the generator's exact output: the labels and every pixel's float
  // bits, then the prepared spikes. A faster generator must reproduce these
  // bytes, not just be deterministic.
  constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
  const Dataset d = generate_synthetic_digits(64, 7);
  std::uint64_t h = fnv1a(kFnvBasis, d.labels.data(), d.labels.size());
  for (const std::vector<float>& img : d.images) {
    h = fnv1a(h, img.data(), img.size() * sizeof(float));
  }
  EXPECT_EQ(h, 0x29c5e9cea899c51eULL);

  const PreparedDataset p = prepare(d, "synthetic");
  std::uint64_t hs = kFnvBasis;
  for (const util::BitVec& s : p.spikes) {
    for (std::size_t k = 0; k < s.size(); ++k) {
      const unsigned char bit = s.test(k) ? 1 : 0;
      hs = fnv1a(hs, &bit, 1);
    }
  }
  EXPECT_EQ(hs, 0x045039b8e65187f9ULL);
}

TEST(Synthetic, CoversAllTenDigits) {
  const Dataset d = generate_synthetic_digits(500, 4);
  std::array<int, 10> hist{};
  for (auto l : d.labels) {
    ASSERT_LE(l, 9);
    ++hist[l];
  }
  for (int h : hist) EXPECT_GT(h, 20);
}

TEST(Synthetic, PixelRangeValid) {
  const Dataset d = generate_synthetic_digits(10, 5);
  for (const auto& img : d.images) {
    ASSERT_EQ(img.size(), 784u);
    for (float p : img) {
      ASSERT_GE(p, 0.0f);
      ASSERT_LE(p, 1.0f);
    }
  }
}

TEST(Synthetic, ForegroundDensityNearMnist) {
  // MNIST is ~19 % foreground after binarization at 0.5; the generator must
  // land close so the hardware activity is representative.
  const PreparedDataset p = prepare(generate_synthetic_digits(300, 6), "syn");
  EXPECT_GT(p.spike_density(), 0.12);
  EXPECT_LT(p.spike_density(), 0.26);
}

TEST(CropCorners, RemovesExactlySixteenCornerPixels) {
  std::vector<float> img(784, 0.0f);
  // Mark the four 2x2 corner blocks.
  for (std::size_t y : {0u, 1u, 26u, 27u}) {
    for (std::size_t x : {0u, 1u, 26u, 27u}) {
      img[y * 28 + x] = 1.0f;
    }
  }
  const std::vector<float> cropped = crop_corners(img);
  ASSERT_EQ(cropped.size(), 768u);
  for (float v : cropped) EXPECT_EQ(v, 0.0f);  // all marked pixels removed
  EXPECT_THROW(crop_corners(std::vector<float>(100)), std::invalid_argument);
}

TEST(CropCorners, PreservesInteriorOrder) {
  std::vector<float> img(784);
  for (std::size_t i = 0; i < 784; ++i) img[i] = static_cast<float>(i);
  const std::vector<float> cropped = crop_corners(img);
  // First surviving pixel is (0,2) = index 2.
  EXPECT_FLOAT_EQ(cropped[0], 2.0f);
  // Row 1 keeps columns 2..25 as well; row 2 keeps all 28.
  EXPECT_FLOAT_EQ(cropped[24], 30.0f);  // (1,2)
  EXPECT_FLOAT_EQ(cropped[48], 56.0f);  // (2,0)
}

TEST(Binarize, ThresholdBehaviour) {
  const std::vector<float> b = binarize_bipolar({0.0f, 0.5f, 0.51f, 1.0f});
  EXPECT_FLOAT_EQ(b[0], -1.0f);
  EXPECT_FLOAT_EQ(b[1], -1.0f);  // strictly greater-than
  EXPECT_FLOAT_EQ(b[2], 1.0f);
  EXPECT_FLOAT_EQ(b[3], 1.0f);
}

TEST(Prepare, SpikesMatchBipolar) {
  const PreparedDataset p = prepare(generate_synthetic_digits(15, 8), "syn");
  ASSERT_EQ(p.size(), 15u);
  EXPECT_EQ(p.source, "syn");
  for (std::size_t i = 0; i < p.size(); ++i) {
    ASSERT_EQ(p.bipolar[i].size(), 768u);
    ASSERT_EQ(p.spikes[i].size(), 768u);
    for (std::size_t k = 0; k < 768; ++k) {
      ASSERT_EQ(p.spikes[i].test(k), p.bipolar[i][k] > 0.0f);
    }
  }
}

TEST(DefaultSplit, SyntheticFallbackDisjointSeeds) {
  // Without ESAM_MNIST_DIR the loader falls back to synthetic data with
  // disjoint train/test streams.
  unsetenv("ESAM_MNIST_DIR");
  const TrainTestSplit s = load_default_split(50, 30, 12);
  EXPECT_EQ(s.train.size(), 50u);
  EXPECT_EQ(s.test.size(), 30u);
  EXPECT_EQ(s.train.source, "synthetic");
  EXPECT_NE(s.train.bipolar[0], s.test.bipolar[0]);
}

TEST(DefaultSplit, ZeroMeansNoneOnEitherSource) {
  unsetenv("ESAM_MNIST_DIR");
  const TrainTestSplit syn = load_default_split(0, 30, 12);
  EXPECT_EQ(syn.train.size(), 0u);
  // The test split does not depend on the train size.
  EXPECT_EQ(syn.test.spikes, load_default_split(50, 30, 12).test.spikes);

  // IDX files under the default names: 0 must not mean "the whole file",
  // as load_mnist_idx's limit does.
  const std::string dir = ::testing::TempDir() + "/esam_idx_default";
  std::filesystem::create_directories(dir);
  write_idx_pair(dir + "/train-images-idx3-ubyte",
                 dir + "/train-labels-idx1-ubyte", 7);
  write_idx_pair(dir + "/t10k-images-idx3-ubyte",
                 dir + "/t10k-labels-idx1-ubyte", 5);
  setenv("ESAM_MNIST_DIR", dir.c_str(), 1);
  const TrainTestSplit none = load_default_split(0, 3, 12);
  const TrainTestSplit all = load_default_split(100, 0, 12);
  unsetenv("ESAM_MNIST_DIR");
  std::filesystem::remove_all(dir);

  EXPECT_EQ(none.train.size(), 0u);
  EXPECT_EQ(none.train.source, "mnist-idx");
  ASSERT_EQ(none.test.size(), 3u);
  EXPECT_EQ(none.test.source, "mnist-idx");
  EXPECT_EQ(none.test.labels, (std::vector<std::uint8_t>{0, 1, 2}));
  EXPECT_EQ(all.train.size(), 7u);  // capped at the file's count
  EXPECT_EQ(all.test.size(), 0u);
}

}  // namespace
}  // namespace esam::data
