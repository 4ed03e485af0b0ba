// The per-pixel photo-block generator, kept as a test oracle.
//
// This is the original MakePhotoBlock (src/apps/content.h): every pixel takes three
// bilinear samples of the color lattice, each computing its horizontal lerps anew. The
// library's version computes those lerps once per row of lattice cells and must reproduce
// this one bit for bit, and leave the Rng at the same position (apps_test); this version
// is written for clarity, not speed.

#ifndef TESTS_PHOTO_BLOCK_REFERENCE_H_
#define TESTS_PHOTO_BLOCK_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/fb/framebuffer.h"
#include "src/util/rng.h"

namespace slim::reference {

inline std::vector<Pixel> MakePhotoBlock(Rng* rng, int32_t w, int32_t h) {
  const auto clamp255 = [](double v) {
    return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
  };
  std::vector<Pixel> out(static_cast<size_t>(w) * h);
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
  auto sample = [&](const std::vector<double>& lat, double x, double y) {
    const int32_t x0 = static_cast<int32_t>(x / kCell);
    const int32_t y0 = static_cast<int32_t>(y / kCell);
    const double fx = x / kCell - x0;
    const double fy = y / kCell - y0;
    const auto at = [&](int32_t gx, int32_t gy) {
      return lat[static_cast<size_t>(std::min(gy, gh - 1)) * gw + std::min(gx, gw - 1)];
    };
    const double top = at(x0, y0) * (1 - fx) + at(x0 + 1, y0) * fx;
    const double bot = at(x0, y0 + 1) * (1 - fx) + at(x0 + 1, y0 + 1) * fx;
    return top * (1 - fy) + bot * fy;
  };
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      const double grain = (rng->NextDouble() - 0.5) * 24.0;
      out[static_cast<size_t>(y) * w + x] =
          MakePixel(clamp255(sample(lattice_r, x, y) + grain),
                    clamp255(sample(lattice_g, x, y) + grain),
                    clamp255(sample(lattice_b, x, y) + grain));
    }
  }
  return out;
}

}  // namespace slim::reference

#endif  // TESTS_PHOTO_BLOCK_REFERENCE_H_
