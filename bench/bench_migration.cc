// Server-farm migration and failover costs (DESIGN.md §9).
//
// Three questions, all in simulated time on the deterministic fabric:
//   1. Blackout — how long is the user's screen dark during a cross-server hotdesk
//      (source freeze -> destination re-attach), at 0/1/10% fabric loss?
//   2. Checkpoint cost — how big is a session checkpoint blob versus the framebuffer it
//      carries, and how many bytes actually cross the wire for one handoff (pre-copy
//      rounds and loss-driven re-sends included)?
//   3. Failover — after the owning server is killed, how long until the user's desktop is
//      back on screen from the warm standby, at the same loss rates?
//
// Knobs: SLIM_MIG_REPS (worlds averaged per configuration, default 3), SLIM_MIG_WIDTH/
// SLIM_MIG_HEIGHT (session geometry, default 640x480). Each rep is an independent world
// (own simulator, fabric, pool) with rep-seeded screen content.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/content.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_stream.h"
#include "src/server/checkpoint.h"
#include "src/server/migration.h"
#include "src/server/session.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace slim {
namespace {

struct Scale {
  int reps = 3;
  int32_t width = 640;
  int32_t height = 480;
};

// One self-contained pool world: two migration-enabled servers, one console homed on
// each, a card issued pool-wide.
struct World {
  explicit World(const Scale& scale) : fabric(&sim, {}) {
    ServerOptions server_options;
    server_options.session_width = scale.width;
    server_options.session_height = scale.height;
    ConsoleOptions console_options;
    console_options.width = scale.width;
    console_options.height = scale.height;
    server_a = std::make_unique<SlimServer>(&sim, &fabric, server_options);
    server_b = std::make_unique<SlimServer>(&sim, &fabric, server_options);
    manager_a = &server_a->EnableMigration(pool, MigrationOptions{});
    manager_b = &server_b->EnableMigration(pool, MigrationOptions{});
    console_a = std::make_unique<Console>(&sim, &fabric, console_options);
    console_b = std::make_unique<Console>(&sim, &fabric, console_options);
    card = pool.IssueCard(1);
    // SLIM_STATS_JSONL=<path> streams both servers' migration/checkpoint counters and
    // session-placement gauges for `slimtop -f` (each rep's world rewrites the file, so
    // the surviving stream is the last rep's).
    server_a->RegisterMetrics(&registry, "server_a");
    server_b->RegisterMetrics(&registry, "server_b");
    streamer = MaybeStreamStats(&sim, &registry);
  }

  // Attach at A and paint rep-seeded photo content edge to edge.
  uint64_t Populate(int rep) {
    console_a->InsertCard(server_a->node(), card);
    sim.RunFor(Milliseconds(300));
    ServerSession* session = server_a->SessionForCard(card);
    SLIM_CHECK(session != nullptr && session->attached());
    Rng rng(1000 + static_cast<uint64_t>(rep));
    const Framebuffer& fb = session->framebuffer();
    for (int32_t y = 0; y < fb.height(); y += 120) {
      for (int32_t x = 0; x < fb.width(); x += 160) {
        session->PutImage(Rect{x, y, 160, 120}, MakePhotoBlock(&rng, 160, 120));
      }
    }
    session->Flush();
    sim.RunFor(Seconds(2));
    SLIM_CHECK(session->framebuffer().ContentHash() ==
               console_a->framebuffer().ContentHash());
    return session->framebuffer().ContentHash();
  }

  void InjectLoss(double loss) {
    if (loss <= 0) {
      return;
    }
    FaultProfile lossy;
    lossy.loss = loss;
    lossy.delay_jitter = Milliseconds(1);
    const NodeId pairs[3][2] = {
        {server_a->node(), server_b->node()},
        {server_b->node(), console_b->node()},
        {console_b->node(), server_b->node()},
    };
    fabric.InjectFaults(pairs[0][0], pairs[0][1], lossy);
    fabric.InjectFaults(pairs[0][1], pairs[0][0], lossy);
    fabric.InjectFaults(pairs[1][0], pairs[1][1], lossy);
    fabric.InjectFaults(pairs[2][0], pairs[2][1], lossy);
  }

  // Tap the card at console B (like a user would, re-tapping while the screen is dark)
  // until the session is live there with the expected pixels. Returns sim-time elapsed.
  SimDuration ConvergeAtB(uint64_t content_hash) {
    const SimTime start = sim.now();
    for (int round = 0; round < 400; ++round) {
      ServerSession* moved = server_b->SessionForCard(card);
      if (moved == nullptr || !moved->attached() ||
          moved->console() != console_b->node()) {
        console_b->InsertCard(server_b->node(), card);
      }
      sim.RunFor(Milliseconds(100));
      moved = server_b->SessionForCard(card);
      if (moved != nullptr && moved->attached() &&
          moved->console() == console_b->node() &&
          console_b->framebuffer().ContentHash() == content_hash) {
        return sim.now() - start;
      }
    }
    SLIM_CHECK(false && "migration never converged");
    return 0;
  }

  Simulator sim;
  Fabric fabric;
  ServerPool pool;
  std::unique_ptr<SlimServer> server_a;
  std::unique_ptr<SlimServer> server_b;
  MigrationManager* manager_a = nullptr;
  MigrationManager* manager_b = nullptr;
  std::unique_ptr<Console> console_a;
  std::unique_ptr<Console> console_b;
  MetricRegistry registry;
  std::unique_ptr<SnapshotStreamer> streamer;
  uint64_t card = 0;
};

struct HandoffNumbers {
  double blackout_ms = 0;
  double converge_ms = 0;
  double wire_bytes = 0;
  double retries = 0;
};

HandoffNumbers MeasureHandoff(const Scale& scale, double loss) {
  HandoffNumbers sum;
  for (int rep = 0; rep < scale.reps; ++rep) {
    World world(scale);
    const uint64_t hash = world.Populate(rep);
    world.InjectLoss(loss);
    const SimDuration converge = world.ConvergeAtB(hash);
    SLIM_CHECK(world.manager_b->stats().installs == 1);
    sum.blackout_ms += ToMillis(world.manager_b->stats().blackout_last_ns);
    sum.converge_ms += ToMillis(converge);
    sum.wire_bytes += static_cast<double>(world.manager_a->stats().chunk_bytes_sent);
    sum.retries += static_cast<double>(world.manager_a->stats().retries +
                                       world.manager_b->stats().retries);
  }
  sum.blackout_ms /= scale.reps;
  sum.converge_ms /= scale.reps;
  sum.wire_bytes /= scale.reps;
  sum.retries /= scale.reps;
  return sum;
}

struct FailoverNumbers {
  double recovery_ms = 0;
  double standby_wire_bytes = 0;
};

FailoverNumbers MeasureFailover(const Scale& scale, double loss) {
  FailoverNumbers sum;
  for (int rep = 0; rep < scale.reps; ++rep) {
    World world(scale);
    // Standby ticks sized to two framebuffers' paced transfer time: one blob (about one
    // framebuffer) plus as much again of headroom for a lossy round to finish draining.
    const int64_t tick_bytes =
        2LL * scale.width * scale.height * static_cast<int64_t>(sizeof(Pixel));
    const SimDuration interval =
        Milliseconds(200) +
        static_cast<SimDuration>(static_cast<double>(tick_bytes) * 8.0 /
                                 MigrationOptions::kRateBps * kSecond);
    world.manager_a->EnableStandby(world.server_b.get(), interval);
    const uint64_t hash = world.Populate(rep);
    world.InjectLoss(loss);
    // Wait until the standby holds a warm copy of the final screen (lossy rounds are
    // re-replicated wholesale on later ticks).
    bool warm = false;
    for (int tick = 0; tick < 100 && !warm; ++tick) {
      world.sim.RunFor(interval);
      warm = world.manager_b->HasWarmCheckpoint(world.card);
    }
    SLIM_CHECK(warm && "standby never stored a checkpoint");
    // Run one more full interval so the stored blob reflects the final (idle) screen.
    world.sim.RunFor(interval + Milliseconds(200));

    world.pool.KillServer(world.server_a.get());
    const SimDuration recovery = world.ConvergeAtB(hash);
    SLIM_CHECK(world.manager_b->stats().failover_restores >= 1);
    sum.recovery_ms += ToMillis(recovery);
    sum.standby_wire_bytes +=
        static_cast<double>(world.manager_a->stats().chunk_bytes_sent);
  }
  sum.recovery_ms /= scale.reps;
  sum.standby_wire_bytes /= scale.reps;
  return sum;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("migration",
                                       "Cross-server hotdesk blackout, checkpoint wire cost, "
                                       "and crash-failover recovery across a server pool");
  Scale scale;
  scale.reps = ScaleKnob(&report, "SLIM_MIG_REPS", 3);
  scale.width = ScaleKnob(&report, "SLIM_MIG_WIDTH", 640);
  scale.height = ScaleKnob(&report, "SLIM_MIG_HEIGHT", 480);

  std::printf("Server-farm migration, %dx%d sessions, %d reps per point\n", scale.width,
              scale.height, scale.reps);

  // --- Checkpoint size vs framebuffer (loss-free, deterministic) ---
  {
    World world(scale);
    world.Populate(0);
    ServerSession* session = world.server_a->SessionForCard(world.card);
    SessionCheckpoint ckpt;
    session->CaptureCheckpoint(&ckpt);
    const std::vector<uint8_t> blob = EncodeCheckpoint(ckpt);
    const double blob_bytes = static_cast<double>(blob.size());
    const double fb_bytes = static_cast<double>(ckpt.fb_bytes());
    std::printf("  checkpoint blob %.0f bytes for a %.0f-byte framebuffer (%.4fx: "
                "pixels plus counters)\n",
                blob_bytes, fb_bytes, blob_bytes / fb_bytes);
    report.Metric("checkpoint.blob_bytes", blob_bytes, "bytes");
    report.Metric("checkpoint.fb_bytes", fb_bytes, "bytes");
    report.Metric("checkpoint.blob_to_fb", blob_bytes / fb_bytes, "x");
  }

  // --- Handoff blackout and bytes on the wire at 0/1/10% loss ---
  const double losses[] = {0.0, 0.01, 0.10};
  std::printf("  %-8s %14s %14s %16s %9s\n", "loss", "blackout ms", "converge ms",
              "wire bytes", "retries");
  for (const double loss : losses) {
    const HandoffNumbers h = MeasureHandoff(scale, loss);
    std::printf("  %-8.2f %14.2f %14.2f %16.0f %9.1f\n", loss * 100, h.blackout_ms,
                h.converge_ms, h.wire_bytes, h.retries);
    const std::string prefix = "handoff.loss" + std::to_string(static_cast<int>(loss * 100));
    report.Metric(prefix + ".blackout_ms", h.blackout_ms, "ms");
    report.Metric(prefix + ".converge_ms", h.converge_ms, "ms");
    report.Metric(prefix + ".wire_bytes", h.wire_bytes, "bytes");
    report.Metric(prefix + ".retries", h.retries, "count");
  }

  // --- Failover recovery from the warm standby at 0/1/10% loss ---
  std::printf("  failover (warm standby, owner killed):\n");
  std::printf("  %-8s %14s %18s\n", "loss", "recovery ms", "standby wire bytes");
  for (const double loss : losses) {
    const FailoverNumbers f = MeasureFailover(scale, loss);
    std::printf("  %-8.2f %14.2f %18.0f\n", loss * 100, f.recovery_ms,
                f.standby_wire_bytes);
    const std::string prefix =
        "failover.loss" + std::to_string(static_cast<int>(loss * 100));
    report.Metric(prefix + ".recovery_ms", f.recovery_ms, "ms");
    report.Metric(prefix + ".standby_wire_bytes", f.standby_wire_bytes, "bytes");
  }

  return report.Write() ? 0 : 1;
}
