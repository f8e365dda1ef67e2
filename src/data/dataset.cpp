#include "esam/data/dataset.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "esam/util/rng.hpp"

namespace esam::data {
namespace {

std::uint32_t read_be32(std::istream& f) {
  unsigned char b[4];
  f.read(reinterpret_cast<char*>(b), 4);
  return (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
         (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
}

}  // namespace

Dataset load_mnist_idx(const std::string& images_path,
                       const std::string& labels_path, std::size_t limit) {
  std::ifstream fi(images_path, std::ios::binary);
  std::ifstream fl(labels_path, std::ios::binary);
  if (!fi) throw std::runtime_error("cannot open " + images_path);
  if (!fl) throw std::runtime_error("cannot open " + labels_path);

  const std::uint32_t magic_i = read_be32(fi);
  if (magic_i != 2051) throw std::runtime_error("bad IDX image magic");
  const std::uint32_t count_i = read_be32(fi);
  const std::uint32_t rows = read_be32(fi);
  const std::uint32_t cols = read_be32(fi);
  if (rows != 28 || cols != 28) {
    throw std::runtime_error("expected 28x28 IDX images");
  }

  const std::uint32_t magic_l = read_be32(fl);
  if (magic_l != 2049) throw std::runtime_error("bad IDX label magic");
  const std::uint32_t count_l = read_be32(fl);
  if (count_i != count_l) {
    throw std::runtime_error("IDX image/label count mismatch");
  }

  std::size_t n = count_i;
  if (limit != 0 && limit < n) n = limit;

  Dataset out;
  out.images.reserve(n);
  out.labels.reserve(n);
  std::vector<unsigned char> buf(784);
  for (std::size_t i = 0; i < n; ++i) {
    fi.read(reinterpret_cast<char*>(buf.data()), 784);
    unsigned char label = 0;
    fl.read(reinterpret_cast<char*>(&label), 1);
    if (!fi || !fl) throw std::runtime_error("IDX file truncated");
    if (label > 9) throw std::runtime_error("IDX label out of range");
    std::vector<float> img(784);
    for (std::size_t p = 0; p < 784; ++p) {
      img[p] = static_cast<float>(buf[p]) / 255.0f;
    }
    out.images.push_back(std::move(img));
    out.labels.push_back(label);
  }
  return out;
}

namespace {

// 5x7 glyphs for digits 0-9 ('#' = stroke). Rendering applies random affine
// jitter, stroke-width variation and noise, so the resulting distribution is
// a reasonable stand-in for handwritten digits.
constexpr const char* kGlyphs[10][7] = {
    {" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "},  // 0
    {"  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "},  // 1
    {" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"},  // 2
    {" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "},  // 3
    {"   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "},  // 4
    {"#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "},  // 5
    {" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "},  // 6
    {"#####", "    #", "   # ", "  #  ", "  #  ", " #   ", " #   "},  // 7
    {" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "},  // 8
    {" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "},  // 9
};

/// Bilinear sample of a glyph at fractional coordinates (gx in [0,5),
/// gy in [0,7)); outside the glyph returns 0.
float sample_glyph(int digit, double gx, double gy) {
  auto cell = [&](int cx, int cy) -> float {
    if (cx < 0 || cx >= 5 || cy < 0 || cy >= 7) return 0.0f;
    return kGlyphs[digit][cy][cx] == '#' ? 1.0f : 0.0f;
  };
  const int x0 = static_cast<int>(std::floor(gx));
  const int y0 = static_cast<int>(std::floor(gy));
  const double fx = gx - x0;
  const double fy = gy - y0;
  const double v = (1 - fx) * (1 - fy) * cell(x0, y0) +
                   fx * (1 - fy) * cell(x0 + 1, y0) +
                   (1 - fx) * fy * cell(x0, y0 + 1) +
                   fx * fy * cell(x0 + 1, y0 + 1);
  return static_cast<float>(v);
}

}  // namespace

Dataset generate_synthetic_digits(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset out;
  out.images.reserve(count);
  out.labels.reserve(count);

  for (std::size_t i = 0; i < count; ++i) {
    const int digit = static_cast<int>(rng.uniform_index(10));
    // Random affine: rotation, anisotropic scale, shear, translation.
    const double theta = rng.uniform(-0.22, 0.22);
    const double sx = rng.uniform(0.85, 1.2);
    const double sy = rng.uniform(0.85, 1.2);
    const double shear = rng.uniform(-0.18, 0.18);
    const double tx = rng.uniform(-2.5, 2.5);
    const double ty = rng.uniform(-2.5, 2.5);
    const double thickness = rng.uniform(0.35, 0.62);  // stroke threshold
    const double ct = std::cos(theta);
    const double st = std::sin(theta);

    std::vector<float> img(784, 0.0f);
    // Nominal glyph box ~ 16x21 px centred in the 28x28 frame.
    const double px_per_cell_x = 3.2 * sx;
    const double px_per_cell_y = 3.0 * sy;
    for (int y = 0; y < 28; ++y) {
      for (int x = 0; x < 28; ++x) {
        // Map output pixel back to glyph coordinates (inverse affine about
        // the image centre).
        const double cx = x - 13.5 - tx;
        const double cy = y - 13.5 - ty;
        const double rx = ct * cx + st * cy;
        const double ry = -st * cx + ct * cy;
        const double gx = (rx - shear * ry) / px_per_cell_x + 2.5;
        const double gy = ry / px_per_cell_y + 3.5;
        float v = sample_glyph(digit, gx - 0.5, gy - 0.5);
        // Soft stroke edge + pixel noise.
        v = v > thickness ? 1.0f : v / static_cast<float>(thickness) * 0.45f;
        v += static_cast<float>(rng.uniform(-0.06, 0.06));
        img[static_cast<std::size_t>(y) * 28 + static_cast<std::size_t>(x)] =
            std::min(1.0f, std::max(0.0f, v));
      }
    }
    out.images.push_back(std::move(img));
    out.labels.push_back(static_cast<std::uint8_t>(digit));
  }
  return out;
}

std::vector<float> crop_corners(const std::vector<float>& image784) {
  if (image784.size() != 784) {
    throw std::invalid_argument("crop_corners: expected 784 pixels");
  }
  std::vector<float> out;
  out.reserve(768);
  for (std::size_t y = 0; y < 28; ++y) {
    for (std::size_t x = 0; x < 28; ++x) {
      const bool corner =
          (y < 2 || y >= 26) && (x < 2 || x >= 26);
      if (!corner) out.push_back(image784[y * 28 + x]);
    }
  }
  return out;
}

std::vector<float> binarize_bipolar(const std::vector<float>& image,
                                    float threshold) {
  std::vector<float> out(image.size());
  for (std::size_t i = 0; i < image.size(); ++i) {
    out[i] = image[i] > threshold ? 1.0f : -1.0f;
  }
  return out;
}

double PreparedDataset::spike_density() const {
  if (spikes.empty()) return 0.0;
  std::size_t on = 0, total = 0;
  for (const auto& s : spikes) {
    on += s.count();
    total += s.size();
  }
  return static_cast<double>(on) / static_cast<double>(total);
}

PreparedDataset prepare(const Dataset& raw, const std::string& source) {
  PreparedDataset out;
  out.source = source;
  out.bipolar.reserve(raw.size());
  out.spikes.reserve(raw.size());
  out.labels = raw.labels;
  for (const auto& img : raw.images) {
    std::vector<float> b = binarize_bipolar(crop_corners(img));
    util::BitVec s(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i] > 0.0f) s.set(i);
    }
    out.bipolar.push_back(std::move(b));
    out.spikes.push_back(std::move(s));
  }
  return out;
}

TrainTestSplit load_default_split(std::size_t n_train, std::size_t n_test,
                                  std::uint64_t seed) {
  // Each split is prepared before the next is read or generated, so the raw
  // float images of both splits are never held at once.
  const char* dir = std::getenv("ESAM_MNIST_DIR");
  if (dir != nullptr) {
    try {
      const std::string base(dir);
      TrainTestSplit split;
      split.train = prepare(
          load_mnist_idx(base + "/train-images-idx3-ubyte",
                         base + "/train-labels-idx1-ubyte", n_train),
          "mnist-idx");
      split.test = prepare(load_mnist_idx(base + "/t10k-images-idx3-ubyte",
                                          base + "/t10k-labels-idx1-ubyte",
                                          n_test),
                           "mnist-idx");
      return split;
    } catch (const std::exception&) {
      // fall through to synthetic
    }
  }
  TrainTestSplit split;
  split.train = prepare(generate_synthetic_digits(n_train, seed), "synthetic");
  split.test = prepare(
      generate_synthetic_digits(n_test, seed ^ 0xdead'beef'cafe'f00dULL),
      "synthetic");
  return split;
}

}  // namespace esam::data
