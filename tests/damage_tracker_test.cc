// Properties of the shadow-frame damage pipeline (src/codec/damage_tracker.h):
//   (a) refined damage stays within the reported damage and covers every pixel that
//       differs between the shadow and the current frame,
//   (b) applying the scroll-salvage COPYs plus the commands encoded from the refined
//       region to a replica of the previous frame reproduces the new frame bit-exactly,
//   (c) the hash-indexed scroll detector agrees with the probe-based reference detector
//       (tests/scroll_probe_reference.h) on randomized scroll / noise / ambiguous inputs,
// plus the session-level contracts: a RepaintAll of an unchanged frame transmits nothing,
// and a tracker-enabled session salvages hint-less scrolls as COPYs and converges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/apps/content.h"
#include "src/codec/damage_tracker.h"
#include "src/codec/decoder.h"
#include "src/codec/encoder.h"
#include "src/codec/row_hash.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "tests/scroll_probe_reference.h"

namespace slim {
namespace {

// Paints a randomized mix of fills, bicolor patches, and photo blocks and returns the
// damage the mutations covered.
Region MutateRandomly(Framebuffer* fb, Rng* rng, int mutations) {
  Region damage;
  for (int i = 0; i < mutations; ++i) {
    const Rect r{static_cast<int32_t>(rng->NextBelow(static_cast<uint64_t>(fb->width()))),
                 static_cast<int32_t>(rng->NextBelow(static_cast<uint64_t>(fb->height()))),
                 2 + static_cast<int32_t>(rng->NextBelow(40)),
                 2 + static_cast<int32_t>(rng->NextBelow(30))};
    const Rect clipped = Intersect(r, fb->bounds());
    if (clipped.empty()) {
      continue;
    }
    switch (rng->NextBelow(3)) {
      case 0:
        fb->Fill(clipped, static_cast<Pixel>(rng->NextU64() & 0xffffff));
        break;
      case 1:
        for (int32_t y = clipped.y; y < clipped.bottom(); ++y) {
          for (int32_t x = clipped.x; x < clipped.right(); ++x) {
            fb->PutPixel(x, y, ((x + y) & 1) ? kWhite : kBlack);
          }
        }
        break;
      default:
        fb->SetPixels(clipped, MakePhotoBlock(rng, clipped.w, clipped.h));
        break;
    }
    damage.Add(clipped);
  }
  return damage;
}

class RefineProperty : public ::testing::TestWithParam<int> {};

// Property (a): refined ⊆ damage, refined covers every differing pixel inside damage, and
// the shadow is brought up to date over the whole damage region (so an immediate repeat
// refines to nothing).
TEST_P(RefineProperty, CoversEveryDifferingPixelWithinDamage) {
  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  const int32_t w = 120, h = 90;
  Framebuffer before(w, h);
  before.SetPixels(before.bounds(), MakePhotoBlock(&rng, w, h));
  DamageTracker tracker(w, h);
  tracker.SyncRect(before, before.bounds());

  Framebuffer after = before;
  MutateRandomly(&after, &rng, 5);

  // Randomized damage: sometimes full-frame (over-broad), sometimes partial rects that
  // may miss some of the mutations — refinement only answers for pixels inside damage.
  Region damage;
  if (rng.NextBool(0.3)) {
    damage.Add(after.bounds());
  } else {
    for (int i = 0; i < 4; ++i) {
      const Rect r{static_cast<int32_t>(rng.NextBelow(w)),
                   static_cast<int32_t>(rng.NextBelow(h)),
                   1 + static_cast<int32_t>(rng.NextBelow(80)),
                   1 + static_cast<int32_t>(rng.NextBelow(60))};
      damage.Add(Intersect(r, after.bounds()));
    }
  }

  const Region refined = tracker.Refine(after, damage);

  for (const Rect& r : refined.rects()) {
    for (int32_t y = r.y; y < r.bottom(); ++y) {
      for (int32_t x = r.x; x < r.right(); ++x) {
        ASSERT_TRUE(damage.Contains(Point{x, y}))
            << "refined pixel (" << x << "," << y << ") outside the damage region";
      }
    }
  }
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      if (!damage.Contains(Point{x, y})) {
        continue;
      }
      if (before.GetPixel(x, y) != after.GetPixel(x, y)) {
        ASSERT_TRUE(refined.Contains(Point{x, y}))
            << "differing pixel (" << x << "," << y << ") missing from refined damage";
      }
      // Shadow is synced over all of damage, changed or not.
      ASSERT_EQ(tracker.shadow().GetPixel(x, y), after.GetPixel(x, y));
    }
  }
  EXPECT_LE(refined.area(), damage.area());
  EXPECT_TRUE(tracker.Refine(after, damage).empty())
      << "repeat refinement of an unchanged frame must be empty";
}

// Property (b): previous frame + scroll COPYs + commands encoded from the refined region
// == new frame, bit-exactly. This is the wire-level correctness of the whole pipeline:
// whatever the scroll detector does or does not find, the residual refinement patches the
// replica to equality.
TEST_P(RefineProperty, SalvagedScrollPlusResidualRoundTrips) {
  Rng rng(2000 + static_cast<uint64_t>(GetParam()));
  const int32_t w = 140, h = 120;
  Framebuffer before(w, h);
  // Unique-ish rows so scrolls are unambiguous in some seeds; photo content in others.
  before.SetPixels(before.bounds(), MakePhotoBlock(&rng, w, h));
  DamageTracker tracker(w, h);
  tracker.SyncRect(before, before.bounds());

  // A vertical scroll of the whole frame (GetPixel reads black outside bounds, which is
  // also what the exposed strip shows until the workload repaints it)...
  const int32_t dy = static_cast<int32_t>(rng.NextInRange(-20, 20));
  Framebuffer after(w, h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      after.PutPixel(x, y, before.GetPixel(x, y - dy));
    }
  }
  // ...plus fresh content in the exposed strip and sprinkled noise, so the residual is
  // nonempty whether or not the detector confirms the scroll.
  if (dy < 0) {
    after.SetPixels(Rect{0, h + dy, w, -dy}, MakePhotoBlock(&rng, w, -dy));
  } else if (dy > 0) {
    after.SetPixels(Rect{0, 0, w, dy}, MakePhotoBlock(&rng, w, dy));
  }
  for (int i = 0; i < 5; ++i) {
    after.PutPixel(static_cast<int32_t>(rng.NextBelow(w)),
                   static_cast<int32_t>(rng.NextBelow(h)),
                   static_cast<Pixel>(rng.NextU64() & 0xffffff));
  }

  std::vector<DisplayCommand> scroll_cmds;
  const Region refined =
      tracker.Refine(after, Region(after.bounds()), /*scroll_max_shift=*/32, &scroll_cmds);
  EXPECT_LE(scroll_cmds.size(), 1u);

  Framebuffer replica = before;
  for (const DisplayCommand& cmd : scroll_cmds) {
    ASSERT_TRUE(ValidateCommand(cmd));
    ASSERT_TRUE(ApplyCommand(cmd, &replica));
  }
  const Encoder encoder;
  for (const DisplayCommand& cmd : encoder.EncodeDamage(after, refined)) {
    ASSERT_TRUE(ValidateCommand(cmd));
    ASSERT_TRUE(ApplyCommand(cmd, &replica));
  }
  EXPECT_EQ(replica.ContentHash(), after.ContentHash()) << "dy=" << dy;
  EXPECT_EQ(tracker.shadow().ContentHash(), after.ContentHash());
}

// Property (c): the hash-indexed detector returns exactly what the probe-based reference
// returns, across clean scrolls, scroll+noise, pure noise, ambiguous uniform fills, and
// periodic (duplicate-row) content, for varied rects and shift limits.
TEST_P(RefineProperty, HashScrollDetectorAgreesWithProbeReference) {
  Rng rng(3000 + static_cast<uint64_t>(GetParam()));
  const int32_t w = 100, h = 80;
  Framebuffer before(w, h);
  const int scenario = GetParam() % 5;
  switch (scenario) {
    case 0:  // unique photo rows: unambiguous
    case 1:
      before.SetPixels(before.bounds(), MakePhotoBlock(&rng, w, h));
      break;
    case 2:  // uniform: every shift "matches"; both detectors must pick the same one
      before.Fill(before.bounds(), MakePixel(40, 40, 40));
      break;
    case 3:  // periodic rows: duplicate row hashes, multiple plausible shifts
      for (int32_t y = 0; y < h; ++y) {
        before.Fill(Rect{0, y, w, 1}, (y % 7 < 3) ? kWhite : MakePixel(0, 0, 128));
      }
      break;
    default:  // bicolor texture
      for (int32_t y = 0; y < h; ++y) {
        for (int32_t x = 0; x < w; ++x) {
          before.PutPixel(x, y, (((x / 3) + y) & 1) ? kWhite : kBlack);
        }
      }
      break;
  }

  const int32_t true_dy = static_cast<int32_t>(rng.NextInRange(-24, 24));
  Framebuffer after(w, h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      after.PutPixel(x, y, before.GetPixel(x, y - true_dy));
    }
  }
  const int noise = static_cast<int>(rng.NextBelow(3)) * static_cast<int>(rng.NextBelow(8));
  for (int i = 0; i < noise; ++i) {
    after.PutPixel(static_cast<int32_t>(rng.NextBelow(w)),
                   static_cast<int32_t>(rng.NextBelow(h)),
                   static_cast<Pixel>(rng.NextU64()));
  }

  const Rect rects[] = {
      after.bounds(),
      Rect{7, 5, 64, 48},
      Rect{0, 10, w, 20},   // wide and short
      Rect{30, 0, 6, h},    // too narrow for detection
      Rect{10, 10, 40, 6},  // too short
      Rect{-8, -8, w, h},   // partially out of bounds
      Rect{static_cast<int32_t>(rng.NextBelow(w / 2)),
           static_cast<int32_t>(rng.NextBelow(h / 2)),
           8 + static_cast<int32_t>(rng.NextBelow(w / 2)),
           8 + static_cast<int32_t>(rng.NextBelow(h / 2))},
  };
  const int32_t shifts[] = {0, 1, 5, 24, h + 3};
  for (const Rect& rect : rects) {
    for (const int32_t max_shift : shifts) {
      const int32_t hash_dy = DetectVerticalScroll(before, after, rect, max_shift);
      const int32_t probe_dy =
          reference::DetectVerticalScrollProbe(before, after, rect, max_shift);
      ASSERT_EQ(hash_dy, probe_dy)
          << "scenario=" << scenario << " true_dy=" << true_dy << " noise=" << noise
          << " rect=" << rect.ToString() << " max_shift=" << max_shift;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, RefineProperty, ::testing::Range(0, 20));

TEST(DamageTrackerTest, InvalidationPassesDamageThroughUntilFullFrameFlush) {
  const int32_t w = 64, h = 48;
  Framebuffer fb(w, h, MakePixel(200, 180, 60));
  DamageTracker tracker(w, h);
  tracker.SyncRect(fb, fb.bounds());
  // In sync: a full-frame refine is empty.
  EXPECT_TRUE(tracker.Refine(fb, Region(fb.bounds())).empty());

  tracker.Invalidate();
  EXPECT_FALSE(tracker.valid());
  // While invalid, even unchanged partial damage passes through verbatim...
  const Region partial(Rect{4, 4, 16, 16});
  EXPECT_EQ(tracker.Refine(fb, partial).area(), partial.area());
  EXPECT_FALSE(tracker.valid());
  // ...until a full-frame flush revalidates, after which refinement resumes.
  EXPECT_EQ(tracker.Refine(fb, Region(fb.bounds())).area(), fb.bounds().area());
  EXPECT_TRUE(tracker.valid());
  EXPECT_TRUE(tracker.Refine(fb, Region(fb.bounds())).empty());
}

TEST(DamageTrackerTest, EnvOverrideParsesLikeTheOtherKnobs) {
  ASSERT_EQ(setenv("SLIM_DAMAGE_TRACKER", "0", 1), 0);
  EXPECT_FALSE(DamageTrackerFromEnv(true));
  ASSERT_EQ(setenv("SLIM_DAMAGE_TRACKER", "1", 1), 0);
  EXPECT_TRUE(DamageTrackerFromEnv(false));
  ASSERT_EQ(setenv("SLIM_DAMAGE_TRACKER", "banana", 1), 0);
  EXPECT_TRUE(DamageTrackerFromEnv(true));   // garbage: keep fallback
  EXPECT_FALSE(DamageTrackerFromEnv(false));
  ASSERT_EQ(unsetenv("SLIM_DAMAGE_TRACKER"), 0);
  EXPECT_TRUE(DamageTrackerFromEnv(true));
}

// Refinement compares pixels, never hashes: these two rows share a RowHash64, and a
// tracker that filtered rows by hash would drop the second write (the console would keep
// showing the first row).
TEST(DamageTrackerTest, RowHashCollisionIsStillRefined) {
  const std::vector<Pixel> first{0xf8f238, 0x816329, 0x008e3b, 0, 0, 0, 0, 0};
  const std::vector<Pixel> second{0xaeae38, 0x36a729, 0x008e3b, 0, 0, 0, 0, 0};
  ASSERT_EQ(RowHash64(first), 0x0487934b51f4b04eull);
  ASSERT_EQ(RowHash64(second), 0x0487934b51f4b04eull);

  const Rect row0{0, 0, 8, 1};
  Framebuffer fb(8, 16);
  DamageTracker tracker(8, 16);
  fb.SetPixels(row0, first);
  EXPECT_FALSE(tracker.Refine(fb, Region(fb.bounds())).empty());
  fb.SetPixels(row0, second);
  const Region refined = tracker.Refine(fb, Region(row0));
  EXPECT_TRUE(refined.Contains(Point{0, 0}));
  EXPECT_TRUE(refined.Contains(Point{1, 0}));
  EXPECT_EQ(tracker.shadow().GetPixel(0, 0), second[0]);
}

// --- Session-level contracts ---

struct SessionRun {
  uint64_t console_hash = 0;
  uint64_t server_hash = 0;
  int64_t bytes = 0;
  EncodeStats stats[6] = {};
};

// Drives a session through a hint-less scroll workload: every frame the full screen is
// PutImage'd (over-broad damage), with the content scrolled up by one 12-row text line
// and a fresh line painted at the bottom — exactly the shape the scroll salvage exists
// for. Returns the transmitted-stream fingerprint.
SessionRun RunScrollWorkload(bool tracker) {
  Simulator sim;
  Fabric fabric(&sim, {});
  ServerOptions options;
  options.session_width = 320;
  options.session_height = 240;
  options.encoder.damage_tracker = tracker;
  SlimServer server(&sim, &fabric, options);
  ConsoleOptions copts;
  copts.width = options.session_width;  // console hash comparable to the session's
  copts.height = options.session_height;
  Console console(&sim, &fabric, copts);
  const uint64_t card = server.auth().IssueCard(7);
  ServerSession& session = server.CreateSession(card);
  console.InsertCard(server.node(), card);
  sim.Run();

  const int32_t w = 320, h = 240, line = 12;
  Framebuffer content(w, h);
  Rng rng(777);
  const auto paint_line = [&](int32_t y0) {
    // A distinct bicolor "text line" per call; rows are unique across the screen.
    const Pixel fg = static_cast<Pixel>(rng.NextU64() & 0xffffff);
    for (int32_t y = y0; y < y0 + line && y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        content.PutPixel(x, y, (((x * 7 + y * 13) % 11) < 4) ? fg : kBlack);
      }
    }
  };
  for (int32_t y = 0; y < h; y += line) {
    paint_line(y);
  }
  std::vector<Pixel> pixels;
  for (int frame = 0; frame < 12; ++frame) {
    content.ReadPixels(content.bounds(), &pixels);
    ServerSession& s = session;
    s.PutImage(content.bounds(), pixels);
    s.Flush();
    sim.Run();
    content.CopyRect(0, line, Rect{0, 0, w, h - line});  // scroll up one line
    paint_line(h - line);
  }

  SessionRun run;
  run.console_hash = console.framebuffer().ContentHash();
  run.server_hash = session.framebuffer().ContentHash();
  run.bytes = session.bytes_sent();
  std::copy(session.encode_stats(), session.encode_stats() + 6, run.stats);
  return run;
}

// The RepaintAll satellite: with the tracker on, repainting an unchanged frame transmits
// zero commands, while ForceRepaintAll (the loss-recovery path) still retransmits fully.
TEST(DamageTrackerSessionTest, RepaintAllOfUnchangedFrameTransmitsNothing) {
  Simulator sim;
  Fabric fabric(&sim, {});
  ServerOptions options;
  options.session_width = 200;
  options.session_height = 160;
  SlimServer server(&sim, &fabric, options);
  ASSERT_TRUE(server.options().encoder.damage_tracker);  // default on
  ConsoleOptions copts;
  copts.width = options.session_width;
  copts.height = options.session_height;
  Console console(&sim, &fabric, copts);
  const uint64_t card = server.auth().IssueCard(3);
  ServerSession& session = server.CreateSession(card);
  console.InsertCard(server.node(), card);
  sim.Run();

  Rng rng(42);
  session.PutImage(Rect{10, 10, 120, 90}, MakePhotoBlock(&rng, 120, 90));
  session.Flush();
  sim.Run();
  const int64_t sent = session.commands_sent();
  ASSERT_GT(sent, 0);

  session.RepaintAll();
  session.Flush();
  sim.Run();
  EXPECT_EQ(session.commands_sent(), sent)
      << "refined repaint of an unchanged frame must transmit nothing";

  session.ForceRepaintAll();
  session.Flush();
  sim.Run();
  EXPECT_GT(session.commands_sent(), sent);
  EXPECT_EQ(console.framebuffer().ContentHash(), session.framebuffer().ContentHash());
}

// The salvage must actually fire on the scroll workload — COPY commands on the wire
// despite the workload never calling CopyArea — and the console must converge.
TEST(DamageTrackerSessionTest, ScrollWorkloadSalvagesScrollsAndConverges) {
  const SessionRun run = RunScrollWorkload(/*tracker=*/true);
  EXPECT_EQ(run.console_hash, run.server_hash);
  EXPECT_GT(run.stats[static_cast<size_t>(CommandType::kCopy)].commands, 0)
      << "scroll salvage never fired on a pure scroll workload";
}

// Ablation correctness: with the tracker off the stream is bigger but the console must
// converge to the same pixels.
TEST(DamageTrackerSessionTest, TrackerOffProducesSamePixelsWithMoreBytes) {
  const SessionRun on = RunScrollWorkload(/*tracker=*/true);
  const SessionRun off = RunScrollWorkload(/*tracker=*/false);
  EXPECT_EQ(on.console_hash, off.console_hash);
  EXPECT_LT(on.bytes, off.bytes)
      << "refinement + salvage should shrink the scroll workload's wire traffic";
}

}  // namespace
}  // namespace slim
