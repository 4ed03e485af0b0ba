// Real-hardware throughput of the shadow-frame damage pipeline on a scroll-heavy
// workload (the worst case the shadow-frame tracker exists for: hint-less scrolls that
// reach the server as full-frame damage).
//
// Every frame a terminal-like screen scrolls up one text line and paints a fresh line at
// the bottom, then reports the WHOLE frame damaged. Two pipelines consume the identical
// frame sequence:
//   baseline  — the encoder alone analyzes the full damage (the tracker's ablation);
//   refined   — DamageTracker::Refine trims it (salvaging the scroll as one COPY), and
//               the encoder only sees the residual.
// Both streams are applied to replica framebuffers and CHECKed for bit-exact convergence,
// so the speedup numbers are for equivalent, correct output. A second section times the
// hash-indexed scroll detector on one of those scroll steps and on two inputs with no
// shift to find (each result is CHECKed against the known dy).
//
// Knobs: SLIM_DP_FRAMES (timed frames, default 40), SLIM_DP_WIDTH/HEIGHT (default
// 1280x1024), SLIM_DP_REPS (detector timing reps, default 25). Expect the refined
// pipeline >= 2x the baseline at defaults (typically far more: the residual is one text
// line out of 64).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/codec/damage_tracker.h"
#include "src/codec/decoder.h"
#include "src/codec/encoder.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace slim {
namespace {

constexpr int32_t kLine = 16;  // text line height in pixels

// A terminal-like screen: unique bicolor text lines, scrolled up one line per Step().
class ScrollScreen {
 public:
  ScrollScreen(int32_t width, int32_t height) : fb_(width, height), rng_(4242) {
    for (int32_t y = 0; y + kLine <= height; y += kLine) {
      PaintLine(y);
    }
  }

  const Framebuffer& fb() const { return fb_; }

  void Step() {
    fb_.CopyRect(0, kLine, Rect{0, 0, fb_.width(), fb_.height() - kLine});
    PaintLine(fb_.height() - kLine);
  }

 private:
  void PaintLine(int32_t y0) {
    const Pixel fg = static_cast<Pixel>(rng_.NextU64() & 0xffffff);
    const int32_t phase = static_cast<int32_t>(rng_.NextBelow(11));
    for (int32_t y = y0; y < y0 + kLine; ++y) {
      for (int32_t x = 0; x < fb_.width(); ++x) {
        fb_.PutPixel(x, y, (((x * 7 + y * 13 + phase) % 11) < 4) ? fg : kBlack);
      }
    }
  }

  Framebuffer fb_;
  Rng rng_;
};

struct PassResult {
  double encode_ms = 0;  // wall time inside the measured pipeline only
  int64_t commands = 0;
  int64_t wire_bytes = 0;
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Runs `frames` scroll steps, encoding each frame's full-frame damage through the
// baseline or refined pipeline, applying every command to `replica`, and CHECKing the
// replica converges to the frame each step.
PassResult RunPass(int32_t width, int32_t height, int frames, bool refined) {
  ScrollScreen screen(width, height);
  Framebuffer replica(width, height);
  const Encoder encoder;
  DamageTracker tracker(width, height);
  PassResult result;
  for (int frame = -1; frame < frames; ++frame) {  // frame -1 is an untimed warmup
    screen.Step();
    const Region damage(screen.fb().bounds());
    std::vector<DisplayCommand> cmds;
    const auto start = std::chrono::steady_clock::now();
    if (refined) {
      // The scroll COPY lands in cmds first; the residual's commands follow, matching the
      // order ServerSession transmits them in.
      const Region residual =
          tracker.Refine(screen.fb(), damage, /*scroll_max_shift=*/64, &cmds);
      for (DisplayCommand& cmd : encoder.EncodeDamage(screen.fb(), residual)) {
        cmds.push_back(std::move(cmd));
      }
    } else {
      cmds = encoder.EncodeDamage(screen.fb(), damage);
    }
    const double ms = MillisSince(start);
    if (frame >= 0) {
      result.encode_ms += ms;
      result.commands += static_cast<int64_t>(cmds.size());
      for (const DisplayCommand& cmd : cmds) {
        result.wire_bytes += static_cast<int64_t>(WireSize(cmd));
      }
    }
    for (const DisplayCommand& cmd : cmds) {
      SLIM_CHECK(ApplyCommand(cmd, &replica));
    }
    SLIM_CHECK(std::ranges::equal(replica.data(), screen.fb().data()));
  }
  return result;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  // SLIM_TRACE=<path.json> captures the run as a Chrome trace (chrome://tracing,
  // Perfetto); zero cost when unset.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("damage_pipeline",
                                       "Shadow-frame damage refinement vs full-damage "
                                       "encoding on a scroll-heavy workload");
  const int frames = ScaleKnob(&report, "SLIM_DP_FRAMES", 40);
  const int32_t width = ScaleKnob(&report, "SLIM_DP_WIDTH", 1280);
  const int32_t height = ScaleKnob(&report, "SLIM_DP_HEIGHT", 1024);
  const int reps = ScaleKnob(&report, "SLIM_DP_REPS", 25);

  const double mpix =
      static_cast<double>(frames) * width * height / 1e6;  // damage analyzed per pass

  std::printf("Damage pipeline, %dx%d, %d scroll frames (full-frame damage each):\n",
              width, height, frames);
  const PassResult baseline = RunPass(width, height, frames, /*refined=*/false);
  const PassResult refined = RunPass(width, height, frames, /*refined=*/true);
  const double base_tput = baseline.encode_ms > 0 ? mpix * 1000.0 / baseline.encode_ms : 0;
  const double ref_tput = refined.encode_ms > 0 ? mpix * 1000.0 / refined.encode_ms : 0;
  const double speedup =
      refined.encode_ms > 0 ? baseline.encode_ms / refined.encode_ms : 0;
  std::printf("  baseline  %8.2f ms  %7.1f Mpix/s  %6lld cmds  %9lld wire bytes\n",
              baseline.encode_ms, base_tput,
              static_cast<long long>(baseline.commands),
              static_cast<long long>(baseline.wire_bytes));
  std::printf("  refined   %8.2f ms  %7.1f Mpix/s  %6lld cmds  %9lld wire bytes\n",
              refined.encode_ms, ref_tput, static_cast<long long>(refined.commands),
              static_cast<long long>(refined.wire_bytes));
  std::printf("  encode-throughput speedup %.2fx, wire bytes %.1fx smaller\n", speedup,
              refined.wire_bytes > 0
                  ? static_cast<double>(baseline.wire_bytes) / refined.wire_bytes
                  : 0);
  report.Metric("baseline.total_ms", baseline.encode_ms, "ms");
  report.Metric("baseline.throughput", base_tput, "Mpix/s");
  report.Metric("baseline.wire_bytes", static_cast<double>(baseline.wire_bytes), "bytes");
  report.Metric("refined.total_ms", refined.encode_ms, "ms");
  report.Metric("refined.throughput", ref_tput, "Mpix/s");
  report.Metric("refined.wire_bytes", static_cast<double>(refined.wire_bytes), "bytes");
  report.Metric("refined.speedup", speedup, "x");

  // Scroll detector micro-bench, best of `reps`, on three inputs:
  //   clean        — one true scroll step;
  //   periodic     — striped content whose rows repeat every 8 rows plus one noise pixel
  //                  mid-frame, so many shifts look plausible row by row but none holds;
  //   blank_margin — text lines between blank rows, redrawn with other text: the block's
  //                  first and last rows are blank and match a source row for almost every
  //                  shift, so only an anchor row inside the text rejects them.
  // The detector is CHECKed to return the expected dy on every input. blank_margin's time
  // is printed but not reported, so the report keeps the metrics its baseline holds.
  const auto time_detector = [&](const char* label, const Framebuffer& b,
                                 const Framebuffer& a, int32_t expect_dy) {
    double hash_ms = 0;
    int32_t hash_dy = 0;
    for (int rep = 0; rep <= reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      hash_dy = DetectVerticalScroll(b, a, a.bounds(), 64);
      const double hms = MillisSince(start);
      if (rep > 0) {  // rep 0 warms up
        hash_ms = hash_ms == 0 ? hms : std::min(hash_ms, hms);
      }
    }
    SLIM_CHECK(hash_dy == expect_dy);
    std::printf("  %-12s  hash %8.3f ms   dy %d\n", label, hash_ms, hash_dy);
    return hash_ms;
  };

  std::printf("Scroll detector (max_shift 64), best of %d:\n", reps);
  ScrollScreen screen(width, height);
  const Framebuffer clean_before = screen.fb();
  screen.Step();
  report.Metric("detector.clean.hash_best_ms",
                time_detector("clean", clean_before, screen.fb(), -kLine), "ms");

  Framebuffer striped(width, height);
  for (int32_t y = 0; y < height; ++y) {
    striped.Fill(Rect{0, y, width, 1},
                 MakePixel(static_cast<uint8_t>(40 * (y % 8)), 64, 128));
  }
  Framebuffer noisy = striped;
  noisy.PutPixel(width / 2 + 77, height / 2 + 1, kWhite);
  report.Metric("detector.periodic.hash_best_ms",
                time_detector("periodic", striped, noisy, 0), "ms");

  constexpr int32_t kMargin = 3 * kLine;  // blank rows above the first line, below the last
  if (height >= 2 * kMargin + kLine && width >= 2 * kMargin + 8) {  // room for a line
    Rng text_rng(99);
    const auto text_page = [&] {
      Framebuffer page(width, height, kWhite);
      for (int32_t y0 = kMargin; y0 + kLine + kMargin <= height; y0 += kLine + kLine / 4) {
        const Pixel fg = static_cast<Pixel>(text_rng.NextU64() & 0xffffff);
        const int32_t phase = static_cast<int32_t>(text_rng.NextBelow(11));
        for (int32_t y = y0; y < y0 + kLine; ++y) {
          for (int32_t x = kMargin; x < width - kMargin; ++x) {
            page.PutPixel(x, y, (((x * 7 + y * 13 + phase) % 11) < 4) ? fg : kWhite);
          }
        }
      }
      return page;
    };
    const Framebuffer page_before = text_page();
    const Framebuffer page_after = text_page();
    time_detector("blank_margin", page_before, page_after, 0);
  }

  return report.Write() ? 0 : 1;
}
