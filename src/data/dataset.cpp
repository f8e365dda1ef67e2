#include "esam/data/dataset.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
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

/// Validates an IDX image/label pair's headers and reads its first
/// min(count, max_count) samples (max_count 0 reads none).
Dataset read_idx(const std::string& images_path,
                 const std::string& labels_path, std::size_t max_count) {
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

  const std::size_t n = std::min<std::size_t>(count_i, max_count);

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

}  // namespace

Dataset load_mnist_idx(const std::string& images_path,
                       const std::string& labels_path, std::size_t limit) {
  if (limit == 0) limit = std::numeric_limits<std::size_t>::max();
  return read_idx(images_path, labels_path, limit);
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

constexpr int kGlyphW = 5;
constexpr int kGlyphH = 7;

/// The glyphs as 0/1 cells with a one-cell zero border: cell (cx, cy), for
/// cx in [-1, 5] and cy in [-1, 7], sits at [cy + 1][cx + 1].
struct GlyphCells {
  float cell[10][kGlyphH + 2][kGlyphW + 2];
};

constexpr GlyphCells make_glyph_cells() {
  GlyphCells g{};
  for (int d = 0; d < 10; ++d) {
    for (int cy = 0; cy < kGlyphH; ++cy) {
      for (int cx = 0; cx < kGlyphW; ++cx) {
        g.cell[d][cy + 1][cx + 1] = kGlyphs[d][cy][cx] == '#' ? 1.0f : 0.0f;
      }
    }
  }
  return g;
}

constexpr GlyphCells kGlyphCells = make_glyph_cells();

/// floor(g) as an int for the generator's small glyph coordinates: truncate
/// toward zero, then step down for negative non-integers. Equal to
/// std::floor, which is a libm call on x86-64 builds without SSE4.1.
int floor_to_int(double g) {
  const int t = static_cast<int>(g);
  return static_cast<double>(t) > g ? t - 1 : t;
}

/// Bilinear sample of a glyph at fractional coordinates (gx in [0,5),
/// gy in [0,7)); outside the glyph returns 0.
float sample_glyph(int digit, double gx, double gy) {
  const int x0 = floor_to_int(gx);
  const int y0 = floor_to_int(gy);
  // A 2x2 neighbourhood wholly outside the glyph: every term below would be
  // a non-negative weight times 0, so the sum is +0 exactly.
  if (x0 < -1 || x0 >= kGlyphW || y0 < -1 || y0 >= kGlyphH) return 0.0f;
  const double fx = gx - x0;
  const double fy = gy - y0;
  const auto& top = kGlyphCells.cell[digit][y0 + 1];
  const auto& bottom = kGlyphCells.cell[digit][y0 + 2];
  double v = (1 - fx) * (1 - fy) * top[x0 + 1];
  v += fx * (1 - fy) * top[x0 + 2];
  v += (1 - fx) * fy * bottom[x0 + 1];
  v += fx * fy * bottom[x0 + 2];
  return static_cast<float>(v);
}

/// std::min(1.0f, std::max(0.0f, v)) for finite v, without a branch: a set
/// sign bit (negative or -0) gives +0, and non-negative floats order like
/// their bit patterns. Compilers branch on the float form, and pixel noise
/// around 0 makes that branch a coin flip.
float clamp_unit(float v) {
  std::int32_t bits = std::bit_cast<std::int32_t>(v);
  bits &= ~(bits >> 31);
  constexpr std::int32_t kOne = std::bit_cast<std::int32_t>(1.0f);
  return std::bit_cast<float>(std::min(bits, kOne));
}

/// Image indices of the 768 pixels left after removing a 2x2 block from each
/// corner, in row-major order.
constexpr std::array<std::uint16_t, 768> make_kept_pixels() {
  std::array<std::uint16_t, 768> kept{};
  std::size_t k = 0;
  for (std::uint16_t y = 0; y < 28; ++y) {
    for (std::uint16_t x = 0; x < 28; ++x) {
      const bool corner = (y < 2 || y >= 26) && (x < 2 || x >= 26);
      if (!corner) kept[k++] = static_cast<std::uint16_t>(y * 28 + x);
    }
  }
  return kept;
}

constexpr std::array<std::uint16_t, 768> kKeptPixels = make_kept_pixels();

}  // namespace

Dataset generate_synthetic_digits(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset out;
  out.images.reserve(count);
  out.labels.reserve(count);

  std::array<float, 784> glyph{};
  std::array<double, 28> ct_cx{};
  std::array<double, 28> nst_cx{};
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

    // Nominal glyph box ~ 16x21 px centred in the 28x28 frame.
    const double px_per_cell_x = 3.2 * sx;
    const double px_per_cell_y = 3.0 * sy;
    for (int x = 0; x < 28; ++x) {
      const double cx = x - 13.5 - tx;
      ct_cx[static_cast<std::size_t>(x)] = ct * cx;
      nst_cx[static_cast<std::size_t>(x)] = -st * cx;
    }
    // Pass 1, no draws: map each output pixel back to glyph coordinates
    // (inverse affine about the image centre) and sample the glyph.
    for (int y = 0; y < 28; ++y) {
      const double cy = y - 13.5 - ty;
      const double st_cy = st * cy;
      const double ct_cy = ct * cy;
      float* row = glyph.data() + static_cast<std::size_t>(y) * 28;
      for (std::size_t x = 0; x < 28; ++x) {
        const double rx = ct_cx[x] + st_cy;
        const double ry = nst_cx[x] + ct_cy;
        const double gx = (rx - shear * ry) / px_per_cell_x + 2.5;
        const double gy = ry / px_per_cell_y + 3.5;
        row[x] = sample_glyph(digit, gx - 0.5, gy - 0.5);
      }
    }
    // Pass 2: soft stroke edge + one noise draw per pixel, in pixel order.
    const auto stroke_scale = static_cast<float>(thickness);
    std::vector<float> img(784);
    for (std::size_t p = 0; p < 784; ++p) {
      float v = glyph[p];
      v = v > thickness ? 1.0f : v / stroke_scale * 0.45f;
      v += static_cast<float>(rng.uniform(-0.06, 0.06));
      img[p] = clamp_unit(v);
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
  std::vector<float> out(kKeptPixels.size());
  for (std::size_t k = 0; k < kKeptPixels.size(); ++k) {
    out[k] = image784[kKeptPixels[k]];
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
  // crop_corners + binarize_bipolar in one pass, straight into the outputs.
  std::array<std::uint64_t, (kKeptPixels.size() + 63) / 64> words{};
  for (const auto& img : raw.images) {
    if (img.size() != 784) {
      throw std::invalid_argument("prepare: expected 784 pixels");
    }
    std::vector<float> b(kKeptPixels.size());
    words.fill(0);
    for (std::size_t k = 0; k < kKeptPixels.size(); ++k) {
      const bool on = img[kKeptPixels[k]] > kBinarizeThreshold;
      b[k] = on ? 1.0f : -1.0f;
      words[k >> 6] |= std::uint64_t{on} << (k & 63);
    }
    out.spikes.push_back(util::BitVec::from_words(b.size(), words.data()));
    out.bipolar.push_back(std::move(b));
  }
  return out;
}

TrainTestSplit load_default_split(std::size_t n_train, std::size_t n_test,
                                  std::uint64_t seed) {
  // Each split is prepared before the next is read or generated, so the raw
  // float images of both splits are never held at once. A size of 0 yields
  // an empty split from either source; the IDX headers are still checked,
  // so the choice of source never depends on the sizes.
  const char* dir = std::getenv("ESAM_MNIST_DIR");
  if (dir != nullptr) {
    try {
      const std::string base = std::string(dir) + "/";
      const auto load = [&](const std::string& stem, std::size_t n) {
        const Dataset raw = read_idx(base + stem + "-images-idx3-ubyte",
                                     base + stem + "-labels-idx1-ubyte", n);
        return prepare(raw, "mnist-idx");
      };
      TrainTestSplit split;
      split.train = load("train", n_train);
      split.test = load("t10k", n_test);
      return split;
    } catch (const std::exception&) {
      // fall through to synthetic
    }
  }
  // The test stream's seed does not depend on the train draws, so a test
  // split built alone (n_train 0) equals the one built beside a train split.
  TrainTestSplit split;
  split.train = prepare(generate_synthetic_digits(n_train, seed), "synthetic");
  split.test = prepare(
      generate_synthetic_digits(n_test, seed ^ 0xdead'beef'cafe'f00dULL),
      "synthetic");
  return split;
}

}  // namespace esam::data
