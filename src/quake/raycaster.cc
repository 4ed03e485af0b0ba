#include "src/quake/raycaster.h"

#include <algorithm>
#include <cmath>

#include "src/color/yuv.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace slim {

RaycastEngine::RaycastEngine(int32_t width, int32_t height, uint64_t seed)
    : width_(width), height_(height) {
  SLIM_CHECK(width > 0 && height > 0);
  Rng rng(seed);

  // Map: solid border, random interior pillars, with a carved ring corridor the demo camera
  // patrols so it never ends up inside a wall.
  for (int y = 0; y < kMapSize; ++y) {
    for (int x = 0; x < kMapSize; ++x) {
      const bool border = x == 0 || y == 0 || x == kMapSize - 1 || y == kMapSize - 1;
      uint8_t cell = border ? 1 : 0;
      if (!border && rng.NextBool(0.14)) {
        cell = static_cast<uint8_t>(1 + rng.NextBelow(kWallKinds));
      }
      map_[static_cast<size_t>(y)][static_cast<size_t>(x)] = cell;
    }
  }
  const double cx = kMapSize / 2.0;
  const double cy = kMapSize / 2.0;
  for (int y = 1; y < kMapSize - 1; ++y) {
    for (int x = 1; x < kMapSize - 1; ++x) {
      const double r = std::hypot(x + 0.5 - cx, y + 0.5 - cy);
      if (r > 5.5 && r < 9.5) {
        map_[static_cast<size_t>(y)][static_cast<size_t>(x)] = 0;
      }
    }
  }

  // Palette: 32 base colors x 8 brightness shades. Base 0 reserved for ceiling gray ramp,
  // base 1 for floor brown ramp, bases 2.. for wall texture colors.
  auto base_color = [&](int base) -> Pixel {
    switch (base) {
      case 0:
        return MakePixel(70, 70, 90);
      case 1:
        return MakePixel(90, 70, 50);
      default:
        return MakePixel(static_cast<uint8_t>(40 + rng.NextBelow(200)),
                         static_cast<uint8_t>(40 + rng.NextBelow(200)),
                         static_cast<uint8_t>(40 + rng.NextBelow(200)));
    }
  };
  for (int base = 0; base < 32; ++base) {
    const Pixel c = base_color(base);
    for (int shade = 0; shade < kShades; ++shade) {
      const double k = (shade + 1.0) / kShades;
      palette_[static_cast<size_t>(base * kShades + shade)] =
          MakePixel(static_cast<uint8_t>(PixelR(c) * k), static_cast<uint8_t>(PixelG(c) * k),
                    static_cast<uint8_t>(PixelB(c) * k));
    }
  }

  // Wall textures: brick/checker patterns over 3 base colors per wall kind.
  textures_.resize(static_cast<size_t>(kWallKinds) * kTextureSize * kTextureSize);
  for (int kind = 0; kind < kWallKinds; ++kind) {
    const int base0 = 2 + kind * 3;
    for (int v = 0; v < kTextureSize; ++v) {
      for (int u = 0; u < kTextureSize; ++u) {
        int base = base0;
        const bool mortar = (v % 16 == 0) || ((u + (v / 16 % 2) * 8) % 16 == 0);
        if (mortar) {
          base = base0 + 1;
        } else if (((u / 8) ^ (v / 8)) & 1) {
          base = base0 + 2;
        }
        textures_[(static_cast<size_t>(kind) * kTextureSize + v) * kTextureSize + u] =
            static_cast<uint8_t>(base);
      }
    }
  }
}

bool RaycastEngine::IsWall(double x, double y) const {
  const int mx = static_cast<int>(x);
  const int my = static_cast<int>(y);
  if (mx < 0 || my < 0 || mx >= kMapSize || my >= kMapSize) {
    return true;
  }
  return map_[static_cast<size_t>(my)][static_cast<size_t>(mx)] != 0;
}

uint8_t RaycastEngine::TextureIndex(int wall_kind, int32_t u, int32_t v, int shade) const {
  const int kind = std::clamp(wall_kind - 1, 0, kWallKinds - 1);
  const uint8_t base =
      textures_[(static_cast<size_t>(kind) * kTextureSize + (v & (kTextureSize - 1))) *
                    kTextureSize +
                (u & (kTextureSize - 1))];
  return static_cast<uint8_t>(base * kShades + std::clamp(shade, 0, kShades - 1));
}

Camera RaycastEngine::DemoCamera(int frame) const {
  Camera cam;
  const double t = frame * 0.02;
  const double cx = kMapSize / 2.0;
  const double cy = kMapSize / 2.0;
  const double r = 7.5;
  cam.x = cx + r * std::cos(t);
  cam.y = cy + r * std::sin(t);
  // Look along the tangent, with a gentle swivel.
  cam.angle = t + M_PI / 2.0 + 0.35 * std::sin(t * 2.7);
  return cam;
}

std::vector<uint8_t> RaycastEngine::RenderFrame(const Camera& camera) const {
  std::vector<uint8_t> frame(static_cast<size_t>(width_) * height_);
  for (int32_t col = 0; col < width_; ++col) {
    const double ray_angle =
        camera.angle + camera.fov * (static_cast<double>(col) / width_ - 0.5);
    const double dir_x = std::cos(ray_angle);
    const double dir_y = std::sin(ray_angle);

    // DDA grid traversal.
    int mx = static_cast<int>(camera.x);
    int my = static_cast<int>(camera.y);
    const double delta_x = dir_x == 0.0 ? 1e30 : std::abs(1.0 / dir_x);
    const double delta_y = dir_y == 0.0 ? 1e30 : std::abs(1.0 / dir_y);
    const int step_x = dir_x < 0 ? -1 : 1;
    const int step_y = dir_y < 0 ? -1 : 1;
    double side_x = dir_x < 0 ? (camera.x - mx) * delta_x : (mx + 1.0 - camera.x) * delta_x;
    double side_y = dir_y < 0 ? (camera.y - my) * delta_y : (my + 1.0 - camera.y) * delta_y;
    int side = 0;
    int wall = 0;
    for (int iter = 0; iter < 2 * kMapSize; ++iter) {
      if (side_x < side_y) {
        side_x += delta_x;
        mx += step_x;
        side = 0;
      } else {
        side_y += delta_y;
        my += step_y;
        side = 1;
      }
      if (mx < 0 || my < 0 || mx >= kMapSize || my >= kMapSize) {
        wall = 1;
        break;
      }
      wall = map_[static_cast<size_t>(my)][static_cast<size_t>(mx)];
      if (wall != 0) {
        break;
      }
    }
    const double raw_dist = side == 0 ? side_x - delta_x : side_y - delta_y;
    // Fisheye correction: project onto the view direction.
    const double dist =
        std::max(0.05, raw_dist * std::cos(ray_angle - camera.angle));

    const int wall_height = static_cast<int>(height_ / dist);
    const int draw_start = std::max(0, height_ / 2 - wall_height / 2);
    const int draw_end = std::min<int>(height_ - 1, height_ / 2 + wall_height / 2);

    // Texture u from the fractional hit position along the wall.
    double hit = side == 0 ? camera.y + raw_dist * dir_y : camera.x + raw_dist * dir_x;
    hit -= std::floor(hit);
    const auto tex_u = static_cast<int32_t>(hit * kTextureSize);
    // Distance shading; y-side walls one shade darker (classic raycaster look).
    int shade = kShades - 1 - static_cast<int>(dist * 0.6);
    if (side == 1) {
      --shade;
    }
    shade = std::clamp(shade, 0, kShades - 1);

    uint8_t* column = frame.data() + col;
    for (int32_t y = 0; y < height_; ++y) {
      uint8_t index;
      if (y < draw_start) {
        // Ceiling: darkens toward the horizon.
        const int cshade = kShades - 1 - (y * kShades) / std::max(1, height_ / 2 + 1);
        index = static_cast<uint8_t>(0 * kShades + std::clamp(cshade, 0, kShades - 1));
      } else if (y > draw_end) {
        const int fshade =
            ((y - height_ / 2) * kShades) / std::max(1, height_ / 2 + 1);
        index = static_cast<uint8_t>(1 * kShades + std::clamp(fshade, 0, kShades - 1));
      } else {
        const auto tex_v = static_cast<int32_t>(
            (static_cast<double>(y - (height_ / 2 - wall_height / 2)) /
             std::max(1, wall_height)) *
            kTextureSize);
        index = TextureIndex(wall, tex_u, tex_v, shade);
      }
      column[static_cast<size_t>(y) * width_] = index;
    }
  }
  return frame;
}

double RaycastEngine::SceneComplexity(const Camera& camera) const {
  // Sample a few rays; the closer the average wall, the more overdraw the engine pays.
  double total = 0.0;
  constexpr int kSamples = 16;
  for (int i = 0; i < kSamples; ++i) {
    const double ray_angle =
        camera.angle + camera.fov * (static_cast<double>(i) / (kSamples - 1) - 0.5);
    const double dx = std::cos(ray_angle) * 0.1;
    const double dy = std::sin(ray_angle) * 0.1;
    double x = camera.x;
    double y = camera.y;
    int steps = 0;
    while (steps < 200 && !IsWall(x, y)) {
      x += dx;
      y += dy;
      ++steps;
    }
    total += 1.0 / (1.0 + steps * 0.1);
  }
  return std::clamp(0.5 + total / kSamples * 2.0, 0.5, 1.5);
}

YuvTranslationLayer::YuvTranslationLayer(const std::array<Pixel, 256>& palette) {
  for (size_t i = 0; i < palette.size(); ++i) {
    lut_[i] = RgbToYuv(palette[i]);
  }
}

YuvImage YuvTranslationLayer::Translate(std::span<const uint8_t> indices, int32_t w,
                                        int32_t h) const {
  SLIM_CHECK(indices.size() >= static_cast<size_t>(w) * h);
  YuvImage out(w, h);
  const std::span<uint8_t> ys = out.mutable_y_plane();
  const std::span<uint8_t> us = out.mutable_u_plane();
  const std::span<uint8_t> vs = out.mutable_v_plane();
  for (size_t i = 0; i < ys.size(); ++i) {
    const Yuv& yuv = lut_[indices[i]];
    ys[i] = yuv.y;
    us[i] = yuv.u;
    vs[i] = yuv.v;
  }
  return out;
}

}  // namespace slim
