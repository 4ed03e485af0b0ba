// Pacing tests: grant-enforced token buckets in the TransmitQueue (GCRA departures,
// per-flow FIFO floors, purge/depth hygiene), the server<->console bandwidth-grant loop,
// and the session's backpressure adaptation — newest-frame-wins video staging and
// damage-coalescing flush deferral, which must be bit-exact once the queue drains.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/apps/content.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/net/transport.h"
#include "src/protocol/messages.h"
#include "src/server/slim_server.h"
#include "src/server/transmit_queue.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/time.h"
#include "src/video/video_source.h"

namespace slim {
namespace {

// --- TransmitQueue unit behaviour --------------------------------------------------------

TEST(PacingQueueTest, TokenBucketSpacesDeparturesAtGrantRate) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint server(&fabric, fabric.AddNode());
  SlimEndpoint console(&fabric, fabric.AddNode());
  TransmitQueue queue(&sim, &server, /*model_cpu_delay=*/false);
  const uint64_t flow = 3;
  queue.SetFlowRate(flow, 1'000'000, /*burst=*/0);

  const FillCommand cmd{Rect{0, 0, 8, 8}, kWhite};
  const auto bytes = static_cast<int64_t>(BodyWireSize(MessageBody{cmd}));
  const SimDuration wire = TransmissionDelay(bytes, 1'000'000);
  ASSERT_GT(wire, 0);

  std::vector<SimTime> departures;
  for (int i = 0; i < 5; ++i) {
    departures.push_back(queue.Send(console.node(), 1, cmd, 0, flow));
  }
  // With no burst credit, back-to-back sends depart exactly one wire time apart: the
  // grant is enforced, not advisory.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(departures[i], static_cast<SimTime>(i) * wire) << "send " << i;
  }
  EXPECT_EQ(queue.paced(), 5);
  EXPECT_EQ(queue.pace_delayed(), 4);  // the first went immediately
  EXPECT_EQ(queue.flow_rate(flow), 1'000'000);
  EXPECT_GT(queue.PaceBacklog(flow), 0);

  // Flow 0 (control) and flows without a grant are never paced.
  sim.Run();
  const SimTime now = sim.now();
  EXPECT_EQ(queue.Send(console.node(), 1, cmd, 0, 0), now);
  EXPECT_EQ(queue.Send(console.node(), 1, cmd, 0, 99), now);
  EXPECT_EQ(queue.paced(), 5);
}

TEST(PacingQueueTest, BurstWindowAdmitsCreditThenPaces) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint server(&fabric, fabric.AddNode());
  SlimEndpoint console(&fabric, fabric.AddNode());
  TransmitQueue queue(&sim, &server, /*model_cpu_delay=*/false);

  const FillCommand cmd{Rect{0, 0, 8, 8}, kWhite};
  const auto bytes = static_cast<int64_t>(BodyWireSize(MessageBody{cmd}));
  const SimDuration wire = TransmissionDelay(bytes, 1'000'000);
  const uint64_t flow = 7;
  queue.SetFlowRate(flow, 1'000'000, /*burst=*/2 * wire);

  std::vector<SimTime> departures;
  for (int i = 0; i < 5; ++i) {
    departures.push_back(queue.Send(console.node(), 1, cmd, 0, flow));
  }
  // Two wire times of credit admit the first three immediately (the bucket may run up to
  // `burst` ahead); after that the flow settles onto the granted rate.
  EXPECT_EQ(departures[0], 0);
  EXPECT_EQ(departures[1], 0);
  EXPECT_EQ(departures[2], 0);
  EXPECT_EQ(departures[3], wire);
  EXPECT_EQ(departures[4], 2 * wire);
}

TEST(PacingQueueTest, FifoFloorSurvivesGrantWithdrawal) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint server(&fabric, fabric.AddNode());
  SlimEndpoint console(&fabric, fabric.AddNode());
  TransmitQueue queue(&sim, &server, /*model_cpu_delay=*/false);

  const FillCommand cmd{Rect{0, 0, 8, 8}, kWhite};
  const uint64_t flow = 4;
  queue.SetFlowRate(flow, 100'000, 0);  // slow: each send is a long wire time
  const SimTime first = queue.Send(console.node(), 1, cmd, 0, flow);
  const SimTime second = queue.Send(console.node(), 1, cmd, 0, flow);
  EXPECT_GT(second, first);

  // The grant is withdrawn (rate 0 stops pacing) — but a later send of the same flow must
  // still not overtake the already-admitted one: the per-flow FIFO floor survives.
  queue.SetFlowRate(flow, 0, 0);
  const SimTime third = queue.Send(console.node(), 1, cmd, 0, flow);
  EXPECT_GE(third, second);
}

TEST(PacingQueueTest, DepthAccountingExactUnderInterleavedSendDrainPurge) {
  // Property sweep over both queue modes: random interleavings of paced/unpaced sends,
  // partial drains, and session purges must never leave phantom depth, a stale map entry
  // for a drained session, or deliver a purged message.
  for (const bool model_cpu : {false, true}) {
    Simulator sim;
    Fabric fabric(&sim, {});
    SlimEndpoint server(&fabric, fabric.AddNode());
    SlimEndpoint console(&fabric, fabric.AddNode());
    int64_t delivered = 0;
    console.set_handler([&](const Message&, NodeId) { ++delivered; });
    TransmitQueue queue(&sim, &server, model_cpu);
    queue.SetFlowRate(1, 2'000'000, Milliseconds(5));
    queue.SetFlowRate(2, 500'000, 0);

    Rng rng(model_cpu ? 7 : 11);
    int64_t sends = 0;
    for (int step = 0; step < 500; ++step) {
      const auto session = static_cast<uint32_t>(1 + rng.NextBelow(3));
      const uint64_t op = rng.NextBelow(10);
      if (op < 6) {
        const uint64_t flow = rng.NextBelow(3);  // 0 = unpaced control
        const auto cost = static_cast<SimDuration>(rng.NextBelow(200'000));
        queue.Send(console.node(), session, FillCommand{Rect{0, 0, 4, 4}, kWhite}, cost,
                   flow);
        ++sends;
      } else if (op < 8) {
        sim.RunFor(static_cast<SimDuration>(rng.NextBelow(Milliseconds(2))));
      } else {
        queue.PurgeSession(session);
        ASSERT_EQ(queue.depth(session), 0) << "purge left depth behind";
      }
      int64_t sum = 0;
      for (uint32_t s = 1; s <= 3; ++s) {
        sum += queue.depth(s);
      }
      ASSERT_EQ(sum, queue.total_depth())
          << "per-session depths disagree with the total at step " << step;
      ASSERT_LE(queue.tracked_sessions(), 3u);
    }
    sim.Run();
    EXPECT_EQ(queue.total_depth(), 0) << "model_cpu=" << model_cpu;
    EXPECT_EQ(queue.tracked_sessions(), 0u)
        << "drained sessions must erase their map entry (model_cpu=" << model_cpu << ")";
    // Conservation: everything sent was either delivered or explicitly purged.
    EXPECT_EQ(delivered, sends - queue.purged()) << "model_cpu=" << model_cpu;
    EXPECT_GT(queue.purged(), 0);
  }
}

// --- Server <-> console grant loop -------------------------------------------------------

ServerOptions PacedServerOptions(bool enabled, bool adapt) {
  ServerOptions options;
  options.model_cpu_delay = true;
  options.pacing.enabled = enabled;
  options.pacing.adapt = adapt;
  return options;
}

ConsoleOptions ConstrainedConsoleOptions(int64_t allocatable_bps) {
  ConsoleOptions options;
  options.allocatable_bps = allocatable_bps;
  return options;
}

// One server + one constrained console with a session attached and (when enabled) grants
// already in force. Tests use RunFor, never Run(): the keepalive probe re-arms forever.
struct PacingRig {
  Simulator sim;
  Fabric fabric;
  SlimServer server;
  Console console;
  ServerSession* session = nullptr;
  uint64_t card = 0;

  PacingRig(int64_t allocatable_bps, bool enabled, bool adapt)
      : fabric(&sim, {}),
        server(&sim, &fabric, PacedServerOptions(enabled, adapt)),
        console(&sim, &fabric, ConstrainedConsoleOptions(allocatable_bps)) {
    card = server.auth().IssueCard(1);
    session = &server.CreateSession(card);
    console.InsertCard(server.node(), card);
    sim.RunFor(Seconds(1));
  }
};

uint64_t BlankHash(const Console& console) {
  return Framebuffer(console.framebuffer().width(), console.framebuffer().height())
      .ContentHash();
}

TEST(PacingLoopTest, AttachRequestsFlowsAndGrantsAreEnforced) {
  PacingRig rig(10'000'000, /*enabled=*/true, /*adapt=*/true);
  ASSERT_TRUE(rig.session->attached());
  EXPECT_GE(rig.server.pacing_stats().requests_sent, 2);
  EXPECT_GE(rig.server.pacing_stats().grants_applied, 2);
  EXPECT_GE(rig.console.grants_sent(), 2);
  // Ascending allocation: the modest interactive ask is satisfied in full first (the
  // paper's starvation guarantee); video gets whatever is left of the 10 Mbps link.
  EXPECT_EQ(rig.session->interactive_grant_bps(), 2'000'000);
  EXPECT_EQ(rig.session->video_grant_bps(), 8'000'000);
  EXPECT_EQ(rig.session->link_total_bps(), 10'000'000);
  // The grants are live in the transmit queue, not just remembered.
  EXPECT_EQ(rig.server.tx_queue().flow_rate(rig.session->interactive_flow()), 2'000'000);
  EXPECT_EQ(rig.server.tx_queue().flow_rate(rig.session->video_flow()), 8'000'000);
}

// On a link with room for both asks, the grants equal the attach-time requests: 2 Mbps
// for the display server and 40 Mbps for the video library.
TEST(PacingLoopTest, AttachRequestsTwoAndFortyMbps) {
  PacingRig rig(100'000'000, /*enabled=*/true, /*adapt=*/true);
  ASSERT_TRUE(rig.session->attached());
  EXPECT_EQ(rig.session->interactive_grant_bps(), 2'000'000);
  EXPECT_EQ(rig.session->video_grant_bps(), 40'000'000);
}

TEST(PacingLoopTest, PacingOffSendsNoRequestsAndPacesNothing) {
  PacingRig rig(10'000'000, /*enabled=*/false, /*adapt=*/false);
  ASSERT_TRUE(rig.session->attached());
  EXPECT_EQ(rig.server.pacing_stats().requests_sent, 0);
  EXPECT_EQ(rig.server.pacing_stats().grants_applied, 0);
  EXPECT_EQ(rig.console.grants_sent(), 0);
  EXPECT_EQ(rig.server.tx_queue().paced(), 0);
}

// --- Session backpressure adaptation -----------------------------------------------------

TEST(PacingSessionTest, StaleVideoFramesDropNewestWins) {
  PacingRig rig(5'000'000, /*enabled=*/true, /*adapt=*/true);
  // k12 160x120 at ~100 fps offers ~23 Mbps into a 3 Mbps video grant: the staged slot
  // must keep being overwritten (newest wins) while the bucket drains.
  SyntheticVideoSource source(160, 120, 9);
  const Rect dst{0, 0, 160, 120};
  for (int i = 0; i < 30; ++i) {
    rig.session->SendVideoFrame(source.Frame(i), dst, CscsDepth::k12);
    rig.sim.RunFor(Milliseconds(10));
  }
  EXPECT_GT(rig.session->video_deferred(), 0);
  EXPECT_GT(rig.session->video_dropped(), 0);
  EXPECT_GT(rig.server.pacing_stats().video_dropped, 0);
  EXPECT_LT(rig.session->video_dropped(), 30);  // some frames did get through

  // Once the offered load stops, the last staged frame must drain and present: the
  // console converges on the session's true framebuffer, which only transmitted frames
  // ever touched — a dropped frame leaves no trace anywhere.
  rig.sim.RunFor(Seconds(3));
  EXPECT_FALSE(rig.session->has_staged_video());
  EXPECT_EQ(rig.session->framebuffer().ContentHash(),
            rig.console.framebuffer().ContentHash());
}

TEST(PacingSessionTest, CoalescedDeferredDamageIsBitExactOnceDrained) {
  // The same drawing sequence through an adaptive paced server and an unpaced one: the
  // paced run must coalesce flushes under pressure, and once both queues drain the two
  // consoles must hold bit-identical screens.
  PacingRig paced(4'000'000, /*enabled=*/true, /*adapt=*/true);
  PacingRig unpaced(4'000'000, /*enabled=*/false, /*adapt=*/false);
  const auto drive = [](PacingRig& rig, uint64_t seed) {
    Rng rng(seed);
    for (int step = 0; step < 40; ++step) {
      const auto x = static_cast<int32_t>(rng.NextBelow(1280 - 64));
      const auto y = static_cast<int32_t>(rng.NextBelow(1024 - 64));
      rig.session->PutImage(Rect{x, y, 64, 64}, MakePhotoBlock(&rng, 64, 64));
      rig.session->Flush();
      rig.sim.RunFor(Milliseconds(2));
    }
    rig.sim.RunFor(Seconds(8));  // drain the paced backlog completely
  };
  drive(paced, 77);
  drive(unpaced, 77);
  EXPECT_GT(paced.session->coalesced_flushes(), 0);
  EXPECT_GT(paced.server.pacing_stats().coalesced_flushes, 0);
  // Both sessions drew identically...
  ASSERT_EQ(paced.session->framebuffer().ContentHash(),
            unpaced.session->framebuffer().ContentHash());
  // ...and deferral lost nothing: each console converged on its session's truth.
  EXPECT_EQ(paced.console.framebuffer().ContentHash(),
            paced.session->framebuffer().ContentHash());
  EXPECT_EQ(unpaced.console.framebuffer().ContentHash(),
            unpaced.session->framebuffer().ContentHash());
}

TEST(PacingSessionTest, AdaptationBoundsQueueDepth) {
  // Same saturating video offer against the same 3 Mbps link: the naive (adapt=false) run
  // queues every paced frame and the backlog grows without bound, while the adaptive run
  // stages frames (newest wins) and keeps the transmit queue shallow.
  const auto run = [](bool adapt) {
    PacingRig rig(3'000'000, /*enabled=*/true, adapt);
    const int64_t after_attach = rig.server.tx_queue().max_depth();
    SyntheticVideoSource source(160, 120, 4);
    for (int i = 0; i < 100; ++i) {
      rig.session->SendVideoFrame(source.Frame(i), Rect{0, 0, 160, 120}, CscsDepth::k12);
      rig.sim.RunFor(Milliseconds(10));
    }
    return std::max<int64_t>(rig.server.tx_queue().max_depth() - after_attach, 0);
  };
  const int64_t naive = run(false);
  const int64_t adaptive = run(true);
  EXPECT_GT(naive, 2 * adaptive) << "naive=" << naive << " adaptive=" << adaptive;
  EXPECT_GT(naive, 20);
}

TEST(PacingSessionTest, HotdeskPurgesPacedBacklogAndBlanksOldConsole) {
  // A pile of paced video is queued for console A when the card appears at console B. The
  // purge must cancel the stale backlog *without* cancelling the release notice queued
  // right after it — A blanks, B converges, nothing stale survives.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, PacedServerOptions(true, /*adapt=*/false));
  Console a(&sim, &fabric, ConstrainedConsoleOptions(3'000'000));
  Console b(&sim, &fabric, ConstrainedConsoleOptions(3'000'000));
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  a.InsertCard(server.node(), card);
  sim.RunFor(Seconds(1));
  ASSERT_TRUE(session.attached());

  SyntheticVideoSource source(160, 120, 5);
  for (int i = 0; i < 10; ++i) {
    session.SendVideoFrame(source.Frame(i), Rect{0, 0, 160, 120}, CscsDepth::k12);
  }
  ASSERT_GT(server.tx_queue().depth(session.id()), 0);  // paced backlog is queued

  b.InsertCard(server.node(), card);
  sim.RunFor(Seconds(2));
  EXPECT_GT(server.tx_queue().purged(), 0);
  EXPECT_EQ(session.console(), b.node());
  EXPECT_EQ(server.lifecycle_stats().hotdesk_handoffs, 1);
  EXPECT_GE(a.releases_applied(), 1);
  EXPECT_EQ(a.framebuffer().ContentHash(), BlankHash(a));
  EXPECT_EQ(session.framebuffer().ContentHash(), b.framebuffer().ContentHash());
}

}  // namespace
}  // namespace slim
