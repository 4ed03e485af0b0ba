#include "src/apps/content.h"

#include <algorithm>
#include <cmath>

namespace slim {

namespace {

uint8_t Clamp255(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

}  // namespace

std::vector<Pixel> MakePhotoBlock(Rng* rng, int32_t w, int32_t h) {
  std::vector<Pixel> out(static_cast<size_t>(w) * h);
  // Coarse lattice of random color anchors, bilinearly interpolated, plus grain.
  constexpr int32_t kCell = 16;
  const int32_t gw = w / kCell + 2;
  const int32_t gh = h / kCell + 2;
  std::vector<double> lattice_r(static_cast<size_t>(gw) * gh);
  std::vector<double> lattice_g(lattice_r.size());
  std::vector<double> lattice_b(lattice_r.size());
  for (size_t i = 0; i < lattice_r.size(); ++i) {
    lattice_r[i] = rng->NextDouble() * 255.0;
    lattice_g[i] = rng->NextDouble() * 255.0;
    lattice_b[i] = rng->NextDouble() * 255.0;
  }
  // The horizontal lerps depend on a pixel's column and its lattice row y0 only, so they
  // are computed once per row of cells, with the same double expressions as a per-pixel
  // bilinear sample; each pixel then takes the vertical lerp between them. Bit for bit
  // the per-pixel form, which tests/photo_block_reference.h keeps.
  const size_t n = static_cast<size_t>(std::max(w, 0));
  std::vector<double> top(3 * n);
  std::vector<double> bot(3 * n);
  const auto horizontal = [&](const std::vector<double>& lat, int32_t y0, double* top_out,
                              double* bot_out) {
    const auto at = [&](int32_t gx, int32_t gy) {
      return lat[static_cast<size_t>(std::min(gy, gh - 1)) * gw + std::min(gx, gw - 1)];
    };
    for (int32_t x = 0; x < w; ++x) {
      const double xd = x;
      const int32_t x0 = static_cast<int32_t>(xd / kCell);
      const double fx = xd / kCell - x0;
      top_out[x] = at(x0, y0) * (1 - fx) + at(x0 + 1, y0) * fx;
      bot_out[x] = at(x0, y0 + 1) * (1 - fx) + at(x0 + 1, y0 + 1) * fx;
    }
  };
  for (int32_t y = 0; y < h; ++y) {
    const double yd = y;
    const int32_t y0 = static_cast<int32_t>(yd / kCell);
    if (y % kCell == 0) {
      horizontal(lattice_r, y0, top.data(), bot.data());
      horizontal(lattice_g, y0, top.data() + n, bot.data() + n);
      horizontal(lattice_b, y0, top.data() + 2 * n, bot.data() + 2 * n);
    }
    const double fy = yd / kCell - y0;
    const double wy = 1 - fy;
    Pixel* row = out.data() + static_cast<size_t>(y) * n;
    for (size_t x = 0; x < n; ++x) {
      const double grain = (rng->NextDouble() - 0.5) * 24.0;
      row[x] = MakePixel(Clamp255(top[x] * wy + bot[x] * fy + grain),
                         Clamp255(top[n + x] * wy + bot[n + x] * fy + grain),
                         Clamp255(top[2 * n + x] * wy + bot[2 * n + x] * fy + grain));
    }
  }
  return out;
}

std::vector<Pixel> MakeArtBlock(Rng* rng, int32_t w, int32_t h) {
  std::vector<Pixel> out(static_cast<size_t>(w) * h);
  // A small palette and rectangular patches; produces a mix of FILLable and busy chunks.
  Pixel palette[6];
  for (Pixel& p : palette) {
    p = MakePixel(static_cast<uint8_t>(rng->NextBelow(256)),
                  static_cast<uint8_t>(rng->NextBelow(256)),
                  static_cast<uint8_t>(rng->NextBelow(256)));
  }
  std::fill(out.begin(), out.end(), palette[0]);
  const int patches = 8 + static_cast<int>(rng->NextBelow(12));
  for (int i = 0; i < patches; ++i) {
    const int32_t pw = 4 + static_cast<int32_t>(rng->NextBelow(static_cast<uint64_t>(w)));
    const int32_t ph = 4 + static_cast<int32_t>(rng->NextBelow(static_cast<uint64_t>(h) / 2 + 1));
    const int32_t px = static_cast<int32_t>(rng->NextBelow(static_cast<uint64_t>(w)));
    const int32_t py = static_cast<int32_t>(rng->NextBelow(static_cast<uint64_t>(h)));
    const Pixel color = palette[rng->NextBelow(6)];
    const bool dither = rng->NextBool(0.3);
    for (int32_t y = py; y < std::min(h, py + ph); ++y) {
      for (int32_t x = px; x < std::min(w, px + pw); ++x) {
        if (!dither || ((x ^ y) & 1) == 0) {
          out[static_cast<size_t>(y) * w + x] = color;
        }
      }
    }
  }
  return out;
}

std::string MakeTextLine(Rng* rng, int max_chars) {
  static constexpr char kLetters[] = "etaoinshrdlucmfwypvbgkqjxz";
  std::string line;
  while (static_cast<int>(line.size()) < max_chars) {
    const int word = 2 + static_cast<int>(rng->NextBelow(8));
    for (int i = 0; i < word && static_cast<int>(line.size()) < max_chars; ++i) {
      line.push_back(kLetters[rng->NextBelow(sizeof(kLetters) - 1)]);
    }
    if (static_cast<int>(line.size()) < max_chars) {
      line.push_back(' ');
    }
  }
  return line;
}

Pixel UiBackground() { return MakePixel(214, 214, 206); }
Pixel UiPanel() { return MakePixel(239, 239, 231); }
Pixel UiAccent() { return MakePixel(49, 97, 156); }
Pixel UiText() { return MakePixel(16, 16, 16); }

}  // namespace slim
