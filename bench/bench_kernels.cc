// Throughput of each per-pixel row kernel, plus the deterministic parity checksums the
// bench_diff gate pins.
//
// The dispatched kernels (KernelOps in src/codec/kernels/) run on every tier this build
// has; the row hash (src/codec/row_hash.h) and the RGB->YUV row conversion
// (src/color/yuv.h) are plain functions with one implementation and run once. A pass
// processes SLIM_KB_ROWS rows of SLIM_KB_WIDTH pixels (best of SLIM_KB_REPS reps) and
// reports GB/s of input pixels consumed plus each tier's speedup over scalar. Content is
// chosen per kernel so no early-exit shortcuts the work: bicolor rows for the two-color
// scan and bit-packer (the full-row "is this text?" worst case), equal rows for the diff
// kernel (the dominant refinement case — damaged rows whose pixels did not change),
// random 24-bit pixels for the hash and YUV kernels.
//
// The timing numbers are machine-dependent and excluded from the bench_diff gate
// (bench_smoke_kernels skips "gbps"/"speedup"/"tiers"); what the committed
// baseline pins are the parity.<kernel>.checksum metrics — 32-bit folds of each
// kernel's outputs over a fixed pseudo-random input set, CHECKed identical across
// every available tier here and compared against the baseline by ctest. A kernel
// change that alters output on any machine moves the checksum and fails the gate.
//
// Knobs: SLIM_KB_WIDTH (default 1280), SLIM_KB_ROWS (default 2048), SLIM_KB_REPS
// (default 9).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/codec/kernels/kernels.h"
#include "src/codec/row_hash.h"
#include "src/color/yuv.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace slim {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<const KernelOps*> AvailableTiers() {
  std::vector<const KernelOps*> tiers{KernelsForTier(KernelTier::kScalar)};
  if (const KernelOps* sse2 = KernelsForTier(KernelTier::kSse2)) {
    tiers.push_back(sse2);
  }
  return tiers;
}

// 32-bit FNV-1a fold used for the parity checksums (exactly representable as a double,
// so the JSON round-trip through bench_diff compares it without tolerance slop).
struct Fold {
  uint32_t h = 2166136261u;
  void Byte(uint8_t b) { h = (h ^ b) * 16777619u; }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
};

// The fixed input set the parity checksums run over: widths 0..130 at offsets 0/1/3,
// drawn from a seeded Rng — identical on every machine and every run.
struct ParityInputs {
  std::vector<Pixel> random;   // 24-bit noise
  std::vector<Pixel> bicolor;  // two colors, for scan/pack
  ParityInputs() {
    Rng rng(0x5eed);
    random.resize(160);
    bicolor.resize(160);
    for (size_t i = 0; i < random.size(); ++i) {
      random[i] = static_cast<Pixel>(rng.NextU64() & 0xffffff);
      bicolor[i] = (rng.NextU64() & 1) ? 0xc0ffee : 0x101010;
    }
  }
};

constexpr size_t kParityOffsets[] = {0, 1, 3};
constexpr size_t kParityMaxWidth = 130;

// Computes the per-kernel output checksum for one tier (the plain functions ignore
// `ops`). Bit-identity across tiers means these folds agree for every tier; the scalar
// value is what the baseline pins.
uint32_t ParityChecksum(const KernelOps& ops, const char* kernel,
                        const ParityInputs& in) {
  Fold fold;
  const std::string name = kernel;
  for (const size_t offset : kParityOffsets) {
    for (size_t w = 0; w + offset < kParityMaxWidth; ++w) {
      if (name == "row_hash") {
        fold.U64(RowHash64({in.random.data() + offset, w}));
      } else if (name == "scan_colors") {
        ColorScan scan;
        ops.scan_colors(in.bicolor.data() + offset, w, &scan);
        ops.scan_colors(in.random.data() + offset, w / 2, &scan);  // mid-state entry
        fold.U32(static_cast<uint32_t>(scan.distinct));
        fold.U32(scan.first);
        fold.U32(scan.second);
      } else if (name == "pack_bitmap_row") {
        uint8_t out[(kParityMaxWidth + 7) / 8] = {};
        ops.pack_bitmap_row(in.bicolor.data() + offset, w, 0xc0ffee, out);
        for (size_t i = 0; i < (w + 7) / 8; ++i) {
          fold.Byte(out[i]);
        }
      } else if (name == "row_diff_span") {
        std::vector<Pixel> b(in.random.begin() + offset,
                             in.random.begin() + offset + w);
        if (w > 2) {
          b[w / 3] ^= 0xffffff;  // plant one diff so lo/hi carry information
        }
        int32_t lo = -1, hi = -1;
        const bool changed =
            ops.row_diff_span(in.random.data() + offset, b.data(), w, &lo, &hi);
        fold.U32(changed ? 1u : 0u);
        fold.U32(static_cast<uint32_t>(lo));
        fold.U32(static_cast<uint32_t>(hi));
      } else {  // rgb_to_yuv_row
        uint8_t y[kParityMaxWidth], u[kParityMaxWidth], v[kParityMaxWidth];
        RgbToYuvRow(in.random.data() + offset, w, y, u, v);
        for (size_t i = 0; i < w; ++i) {
          fold.Byte(y[i]);
          fold.Byte(u[i]);
          fold.Byte(v[i]);
        }
      }
    }
  }
  return fold.h;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  const int32_t width = EnvInt("SLIM_KB_WIDTH", 1280);
  const int rows = EnvInt("SLIM_KB_ROWS", 2048);
  const int reps = EnvInt("SLIM_KB_REPS", 9);

  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport(
      "kernels", "Per-tier throughput and cross-tier parity of the SIMD pixel kernels");
  report.Knob("SLIM_KB_WIDTH", width);
  report.Knob("SLIM_KB_ROWS", rows);
  report.Knob("SLIM_KB_REPS", reps);

  const auto tiers = AvailableTiers();
  report.Metric("tiers.available", static_cast<int64_t>(tiers.size()), "tiers");
  std::printf("Pixel kernels, %d rows x %d px, best of %d  (dispatch default: %s)\n",
              rows, width, reps, KernelTierName(Kernels().tier));

  // Benchmark inputs, built once. Each pass reads `rows` distinct rows out of a buffer
  // a few rows larger than L2 so the working set resembles framebuffer scans, not a
  // single hot cache line.
  const size_t n = static_cast<size_t>(width);
  const size_t total = n * static_cast<size_t>(rows);
  Rng rng(0xbe7c);
  std::vector<Pixel> noise(total), bicolor(total);
  for (size_t i = 0; i < total; ++i) {
    noise[i] = static_cast<Pixel>(rng.NextU64() & 0xffffff);
    bicolor[i] = (rng.NextU64() & 7) ? 0x123456 : 0xfedcba;
  }
  const std::vector<Pixel> noise_copy = noise;  // equal rows for the diff kernel
  std::vector<uint8_t> bits(n / 8 + 8);
  std::vector<uint8_t> yp(n), up(n), vp(n);

  const double gb = static_cast<double>(total) * sizeof(Pixel) / 1e9;

  struct KernelCase {
    const char* name;
    bool dispatched;  // false: a plain function, timed once (as "scalar")
    // Runs one full pass over the input rows; returns a sink value so the optimizer
    // cannot delete the loop.
    uint64_t (*pass)(const KernelOps&, const std::vector<Pixel>&,
                     const std::vector<Pixel>&, const std::vector<Pixel>&, size_t,
                     int, std::vector<uint8_t>*, std::vector<uint8_t>*,
                     std::vector<uint8_t>*, std::vector<uint8_t>*);
  };
  const KernelCase cases[] = {
      {"row_hash", false,
       [](const KernelOps&, const std::vector<Pixel>& noise,
          const std::vector<Pixel>&, const std::vector<Pixel>&, size_t n, int rows,
          std::vector<uint8_t>*, std::vector<uint8_t>*, std::vector<uint8_t>*,
          std::vector<uint8_t>*) {
         uint64_t sink = 0;
         for (int r = 0; r < rows; ++r) {
           sink ^= RowHash64({noise.data() + static_cast<size_t>(r) * n, n});
         }
         return sink;
       }},
      {"scan_colors", true,
       [](const KernelOps& ops, const std::vector<Pixel>&,
          const std::vector<Pixel>& bicolor, const std::vector<Pixel>&, size_t n,
          int rows, std::vector<uint8_t>*, std::vector<uint8_t>*,
          std::vector<uint8_t>*, std::vector<uint8_t>*) {
         uint64_t sink = 0;
         for (int r = 0; r < rows; ++r) {
           ColorScan scan;  // fresh per row: scan the whole row, never early-exit
           ops.scan_colors(bicolor.data() + static_cast<size_t>(r) * n, n, &scan);
           sink += static_cast<uint64_t>(scan.distinct) + scan.first + scan.second;
         }
         return sink;
       }},
      {"pack_bitmap_row", true,
       [](const KernelOps& ops, const std::vector<Pixel>&,
          const std::vector<Pixel>& bicolor, const std::vector<Pixel>&, size_t n,
          int rows, std::vector<uint8_t>* bits, std::vector<uint8_t>*,
          std::vector<uint8_t>*, std::vector<uint8_t>*) {
         uint64_t sink = 0;
         for (int r = 0; r < rows; ++r) {
           ops.pack_bitmap_row(bicolor.data() + static_cast<size_t>(r) * n, n,
                               0xfedcba, bits->data());
           sink += (*bits)[0] + (*bits)[n / 8 - 1];
         }
         return sink;
       }},
      {"row_diff_span", true,
       [](const KernelOps& ops, const std::vector<Pixel>& noise,
          const std::vector<Pixel>&, const std::vector<Pixel>& noise_copy, size_t n,
          int rows, std::vector<uint8_t>*, std::vector<uint8_t>*,
          std::vector<uint8_t>*, std::vector<uint8_t>*) {
         uint64_t sink = 0;
         for (int r = 0; r < rows; ++r) {
           int32_t lo = 0, hi = 0;
           const size_t at = static_cast<size_t>(r) * n;
           sink += ops.row_diff_span(noise.data() + at, noise_copy.data() + at, n,
                                     &lo, &hi)
                       ? 1u
                       : 0u;
         }
         return sink;
       }},
      {"rgb_to_yuv_row", false,
       [](const KernelOps&, const std::vector<Pixel>& noise,
          const std::vector<Pixel>&, const std::vector<Pixel>&, size_t n, int rows,
          std::vector<uint8_t>*, std::vector<uint8_t>* yp, std::vector<uint8_t>* up,
          std::vector<uint8_t>* vp) {
         uint64_t sink = 0;
         for (int r = 0; r < rows; ++r) {
           RgbToYuvRow(noise.data() + static_cast<size_t>(r) * n, n, yp->data(),
                       up->data(), vp->data());
           sink += (*yp)[0] + (*up)[n / 2] + (*vp)[n - 1];
         }
         return sink;
       }},
  };

  const ParityInputs parity_inputs;
  for (const KernelCase& kc : cases) {
    const std::vector<const KernelOps*> kc_tiers =
        kc.dispatched ? tiers : std::vector<const KernelOps*>{tiers[0]};
    // Parity checksums first: every tier must fold to the same value, and the scalar
    // fold is the deterministic metric the committed baseline pins.
    const uint32_t checksum = ParityChecksum(*tiers[0], kc.name, parity_inputs);
    for (const KernelOps* ops : kc_tiers) {
      SLIM_CHECK(ParityChecksum(*ops, kc.name, parity_inputs) == checksum);
    }
    report.Metric(std::string("parity.") + kc.name + ".checksum",
                  static_cast<int64_t>(checksum), "fnv32");

    double scalar_ms = 0;
    std::printf("  %-16s", kc.name);
    for (const KernelOps* ops : kc_tiers) {
      double best_ms = 0;
      uint64_t sink = 0;
      for (int rep = 0; rep <= reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        sink ^= kc.pass(*ops, noise, bicolor, noise_copy, n, rows, &bits, &yp, &up,
                        &vp);
        const double ms = MillisSince(start);
        if (rep > 0) {  // rep 0 warms up
          best_ms = best_ms == 0 ? ms : std::min(best_ms, ms);
        }
      }
      const double gbps = best_ms > 0 ? gb * 1000.0 / best_ms : 0;
      const std::string prefix = std::string(kc.name) + "." + KernelTierName(ops->tier);
      report.Metric(prefix + ".gbps", gbps, "GB/s");
      if (ops->tier == KernelTier::kScalar) {
        scalar_ms = best_ms;
        std::printf("  scalar %6.2f GB/s", gbps);
      } else {
        const double speedup = best_ms > 0 ? scalar_ms / best_ms : 0;
        report.Metric(prefix + ".speedup", speedup, "x");
        std::printf("   %s %6.2f GB/s (%4.2fx)", KernelTierName(ops->tier), gbps,
                    speedup);
      }
      if (sink == 0x5a5a5a5a5a5a5a5aull) {  // keep the sink observable
        std::printf("!");
      }
    }
    std::printf("\n");
  }

  return report.Write() ? 0 : 1;
}
