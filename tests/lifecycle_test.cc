// Session-lifecycle tests: transmit ordering through the server's single FIFO pipeline,
// the hotdesk handoff protocol (old console released and blanked before the new console's
// repaint), console liveness (keepalive probe -> timeout -> detach, with bounded re-probe
// backoff), idle-session eviction, and the attach/detach state machine's behaviour when a
// chaotic fabric loses the control messages themselves.
//
// Every test here uses RunFor/RunUntil, never Run(): an armed keepalive re-probes forever,
// so with liveness enabled the event queue never goes empty.

#include <gtest/gtest.h>

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

namespace slim {
namespace {

uint64_t BlankHash(const Console& console) {
  return Framebuffer(console.framebuffer().width(), console.framebuffer().height())
      .ContentHash();
}

// --- Transmit queue unit behaviour -------------------------------------------------------

TEST(TransmitQueueTest, ZeroCostSendQueuesBehindBusyPipeline) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint server(&fabric, fabric.AddNode());
  SlimEndpoint console(&fabric, fabric.AddNode());
  std::vector<MessageType> arrivals;
  console.set_handler(
      [&](const Message& msg, NodeId) { arrivals.push_back(TypeOfMessage(msg)); });

  TransmitQueue queue(&sim, &server, /*model_cpu_delay=*/true);
  const SimTime costly_done =
      queue.Send(console.node(), 1, FillCommand{Rect{0, 0, 8, 8}, kWhite}, Milliseconds(5));
  EXPECT_EQ(costly_done, Milliseconds(5));
  // An audio sample costs the modeled CPU nothing, but it must still leave after the fill
  // the pipeline is busy with — this is the slim_server.cc fast-path reordering bug.
  const SimTime audio_done = queue.Send(console.node(), 1, AudioMsg{8000, {1, 2, 3}}, 0);
  EXPECT_EQ(audio_done, costly_done);
  EXPECT_EQ(queue.deferred(), 2);
  EXPECT_EQ(queue.depth(1), 2);

  sim.RunFor(Milliseconds(20));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], MessageType::kFill);
  EXPECT_EQ(arrivals[1], MessageType::kAudio);
  EXPECT_EQ(queue.total_depth(), 0);
  EXPECT_EQ(queue.max_depth(), 2);

  // Pipeline drained: a zero-cost send now takes the immediate path again.
  const int64_t deferred_before = queue.deferred();
  EXPECT_EQ(queue.Send(console.node(), 1, AudioMsg{8000, {4}}, 0), sim.now());
  EXPECT_EQ(queue.deferred(), deferred_before);
}

// --- Server-level transmit ordering ------------------------------------------------------

class OrderingFixture : public ::testing::Test {
 protected:
  OrderingFixture() : fabric_(&sim_, {}) {
    ServerOptions options;
    options.model_cpu_delay = true;
    server_ = std::make_unique<SlimServer>(&sim_, &fabric_, options);
    fake_console_ = std::make_unique<SlimEndpoint>(&fabric_, fabric_.AddNode());
    fake_console_->set_handler(
        [&](const Message& msg, NodeId) { arrivals_.push_back(TypeOfMessage(msg)); });
  }

  bool IsDisplay(MessageType t) const {
    return t == MessageType::kSet || t == MessageType::kBitmap || t == MessageType::kFill ||
           t == MessageType::kCopy || t == MessageType::kCscs;
  }

  Simulator sim_;
  Fabric fabric_;
  std::unique_ptr<SlimServer> server_;
  std::unique_ptr<SlimEndpoint> fake_console_;
  std::vector<MessageType> arrivals_;
};

TEST_F(OrderingFixture, AudioAndPongNeverOvertakeCpuDelayedDisplayCommands) {
  const uint64_t card = server_->auth().IssueCard(1);
  ServerSession& session = server_->CreateSession(card);
  fake_console_->Send(server_->node(), 0, SessionAttachMsg{card});
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(session.attached());
  arrivals_.clear();

  // A costed burst, then — at the same simulated instant — a zero-cost audio sample and a
  // ping. The modeled CPU is busy with the burst, so neither may overtake it.
  Rng rng(21);
  session.PutImage(Rect{0, 0, 320, 240}, MakePhotoBlock(&rng, 320, 240));
  session.Flush();
  const uint8_t samples[64] = {};
  session.SendAudio(8000, samples);
  fake_console_->Send(server_->node(), session.id(), PingMsg{7});
  sim_.RunFor(Seconds(1));

  EXPECT_GT(server_->tx_queue().deferred(), 0);
  int last_display = -1;
  int audio_at = -1;
  int pong_at = -1;
  for (int i = 0; i < static_cast<int>(arrivals_.size()); ++i) {
    if (IsDisplay(arrivals_[i])) {
      last_display = i;
    } else if (arrivals_[i] == MessageType::kAudio) {
      audio_at = i;
    } else if (arrivals_[i] == MessageType::kPong) {
      pong_at = i;
    }
  }
  ASSERT_GE(last_display, 0);
  ASSERT_GE(audio_at, 0);
  ASSERT_GE(pong_at, 0);
  EXPECT_GT(audio_at, last_display) << "audio overtook a CPU-delayed display command";
  EXPECT_GT(pong_at, last_display) << "pong overtook a CPU-delayed display command";
}

// --- Hotdesk handoff ---------------------------------------------------------------------

class LifecycleFixture : public ::testing::Test {
 protected:
  explicit LifecycleFixture(ServerOptions options = {})
      : fabric_(&sim_, {}),
        server_(&sim_, &fabric_, options),
        console_a_(&sim_, &fabric_, ConsoleOptions{}),
        console_b_(&sim_, &fabric_, ConsoleOptions{}) {}

  ServerSession& AttachedAt(Console& console) {
    card_ = server_.auth().IssueCard(1);
    ServerSession& session = server_.CreateSession(card_);
    console.InsertCard(server_.node(), card_);
    sim_.RunFor(Seconds(1));
    EXPECT_TRUE(session.attached());
    EXPECT_EQ(session.console(), console.node());
    return session;
  }

  Simulator sim_;
  Fabric fabric_;
  SlimServer server_;
  Console console_a_;
  Console console_b_;
  uint64_t card_ = 0;
};

TEST_F(LifecycleFixture, HotdeskReleasesAndBlanksTheOldConsole) {
  ServerSession& session = AttachedAt(console_a_);
  Rng rng(31);
  session.PutImage(Rect{10, 10, 200, 150}, MakePhotoBlock(&rng, 200, 150));
  session.Flush();
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(session.framebuffer().ContentHash(), console_a_.framebuffer().ContentHash());

  // The card appears at console B without a RemoveCard first — the pull case the old
  // server mishandled by leaving console A live with a stale screen.
  console_b_.InsertCard(server_.node(), card_);
  sim_.RunFor(Seconds(1));
  const int64_t a_commands_after_handoff = console_a_.commands_applied();

  EXPECT_EQ(session.console(), console_b_.node());
  EXPECT_EQ(server_.lifecycle_stats().hotdesk_handoffs, 1);
  // The new console converges bit-exact on the session's true framebuffer.
  EXPECT_EQ(session.framebuffer().ContentHash(), console_b_.framebuffer().ContentHash());
  // The old console honoured the release: blanked, not frozen on the user's last screen.
  EXPECT_GE(console_a_.releases_applied(), 1);
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), BlankHash(console_a_));

  // And it stops receiving session traffic: more drawing reaches only console B.
  session.PutImage(Rect{50, 50, 100, 100}, MakePhotoBlock(&rng, 100, 100));
  session.Flush();
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(console_a_.commands_applied(), a_commands_after_handoff);
  EXPECT_EQ(session.framebuffer().ContentHash(), console_b_.framebuffer().ContentHash());
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), BlankHash(console_a_));
}

TEST_F(LifecycleFixture, CardRemovalDetachesAndBlanks) {
  ServerSession& session = AttachedAt(console_a_);
  console_a_.RemoveCard(server_.node(), card_);
  sim_.RunFor(Seconds(1));
  EXPECT_FALSE(session.attached());
  EXPECT_EQ(server_.session_state(session.id()), SessionState::kDetached);
  EXPECT_EQ(server_.lifecycle_stats().detaches, 1);
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), BlankHash(console_a_));
  // The session itself survives (it is detached, not evicted) and resumes on re-insert.
  EXPECT_EQ(server_.session_count(), 1u);
  console_a_.InsertCard(server_.node(), card_);
  sim_.RunFor(Seconds(1));
  EXPECT_TRUE(session.attached());
  EXPECT_EQ(session.framebuffer().ContentHash(), console_a_.framebuffer().ContentHash());
}

// --- Release notice re-sends -------------------------------------------------------------

// A bare endpoint standing in for a console, so the test sees when each release notice
// arrives rather than only that the screen blanked.
class ReleaseFixture : public ::testing::Test {
 protected:
  ReleaseFixture()
      : fabric_(&sim_, {}),
        server_(&sim_, &fabric_, {}),
        console_(&fabric_, fabric_.AddNode()) {
    console_.set_handler([&](const Message& msg, NodeId) {
      if (std::holds_alternative<SessionReleaseMsg>(msg.body)) {
        releases_.push_back(sim_.now());
      }
    });
    card_ = server_.auth().IssueCard(1);
    session_ = &server_.CreateSession(card_);
  }

  void Insert() { console_.Send(server_.node(), 0, SessionAttachMsg{card_}); }
  void Remove() { console_.Send(server_.node(), 0, SessionDetachMsg{card_}); }

  Simulator sim_;
  Fabric fabric_;
  SlimServer server_;
  SlimEndpoint console_;
  uint64_t card_ = 0;
  ServerSession* session_ = nullptr;
  std::vector<SimTime> releases_;
};

TEST_F(ReleaseFixture, DetachSendsThreeReleaseCopiesTwentyFiveMsApart) {
  Insert();
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(session_->attached());
  Remove();
  sim_.RunFor(Seconds(1));
  EXPECT_FALSE(session_->attached());
  ASSERT_EQ(releases_.size(), 3u);
  EXPECT_EQ(releases_[1] - releases_[0], Milliseconds(25));
  EXPECT_EQ(releases_[2] - releases_[0], Milliseconds(50));
  EXPECT_EQ(server_.lifecycle_stats().releases_sent, 3);
}

TEST_F(ReleaseFixture, ReattachWithin25MsCancelsPendingCopies) {
  Insert();
  sim_.RunFor(Seconds(1));
  Remove();
  sim_.RunFor(Milliseconds(10));
  Insert();  // reaches the server before the first re-send is due
  sim_.RunFor(Seconds(1));
  EXPECT_TRUE(session_->attached());
  EXPECT_EQ(releases_.size(), 1u);
  EXPECT_EQ(server_.lifecycle_stats().releases_sent, 1);
}

// --- Console liveness --------------------------------------------------------------------

ServerOptions LivenessOptions(SimDuration interval, SimDuration timeout, int max_missed) {
  ServerOptions options;
  options.lifecycle.keepalive_interval = interval;
  options.lifecycle.keepalive_timeout = timeout;
  options.lifecycle.max_missed_probes = max_missed;
  return options;
}

class KeepaliveFixture : public LifecycleFixture {
 protected:
  KeepaliveFixture()
      : LifecycleFixture(LivenessOptions(Milliseconds(50), Milliseconds(60), 3)) {}
};

TEST_F(KeepaliveFixture, SilentConsoleIsDetachedWithinBoundAndProbesBackOff) {
  ServerSession& session = AttachedAt(console_a_);
  // The console goes silent: everything it sends (pongs included) is lost. The server's
  // own traffic still flows, so the release notice will reach the dead-uplink console.
  FaultProfile mute;
  mute.loss = 1.0;
  fabric_.InjectFaults(console_a_.node(), server_.node(), mute);
  const int64_t probes_while_healthy = server_.lifecycle_stats().probes_sent;

  sim_.RunFor(Seconds(2));

  EXPECT_FALSE(session.attached());
  EXPECT_EQ(server_.session_state(session.id()), SessionState::kDetached);
  EXPECT_EQ(server_.lifecycle_stats().keepalive_timeouts, 1);
  EXPECT_EQ(server_.lifecycle_stats().detaches, 1);
  // Detach happened within the configured bound: first probe at 50ms, then misses at
  // backed-off gaps (100ms, 200ms) — three misses land well inside 500ms, and the
  // exponential backoff keeps the probe count small instead of hammering a dead console.
  EXPECT_LE(server_.lifecycle_stats().probes_sent - probes_while_healthy, 6);
  EXPECT_EQ(console_a_.framebuffer().ContentHash(), BlankHash(console_a_));
  // The console did answer every ping it heard; the answers just never arrived.
  EXPECT_GT(console_a_.pings_answered(), 0);
}

TEST_F(KeepaliveFixture, ResponsiveConsoleStaysAttachedIndefinitely) {
  ServerSession& session = AttachedAt(console_a_);
  sim_.RunFor(Seconds(5));
  EXPECT_TRUE(session.attached());
  EXPECT_EQ(server_.lifecycle_stats().keepalive_timeouts, 0);
  EXPECT_GT(server_.lifecycle_stats().probes_sent, 0);
  EXPECT_GT(console_a_.pings_answered(), 0);
}

class LossyKeepaliveFixture : public LifecycleFixture {
 protected:
  // Tolerant liveness settings: a quarter of all datagrams die in each direction, but a
  // pong every 300ms is enough to stay attached.
  LossyKeepaliveFixture()
      : LifecycleFixture(LivenessOptions(Milliseconds(50), Milliseconds(300), 8)) {}
};

TEST_F(LossyKeepaliveFixture, LivenessSurvivesChaosLossWithoutFalseDetach) {
  ServerSession& session = AttachedAt(console_a_);
  FaultProfile lossy;
  lossy.loss = 0.25;
  fabric_.InjectFaults(server_.node(), console_a_.node(), lossy);
  fabric_.InjectFaults(console_a_.node(), server_.node(), lossy);

  sim_.RunFor(Seconds(5));

  EXPECT_TRUE(session.attached());
  EXPECT_EQ(server_.lifecycle_stats().keepalive_timeouts, 0);
  EXPECT_GT(server_.lifecycle_stats().probes_sent, 10);
  EXPECT_GT(console_a_.pings_answered(), 0);
}

// --- Eviction and directory hygiene ------------------------------------------------------

class EvictionFixture : public LifecycleFixture {
 protected:
  static ServerOptions Options() {
    ServerOptions options;
    options.lifecycle.evict_after = Milliseconds(100);
    return options;
  }
  EvictionFixture() : LifecycleFixture(Options()) {}
};

TEST_F(EvictionFixture, IdleDetachedSessionIsEvictedAndCardMappingReclaimed) {
  ServerSession& session = AttachedAt(console_a_);
  const uint32_t id = session.id();
  console_a_.RemoveCard(server_.node(), card_);
  sim_.RunFor(Milliseconds(50));
  // Still inside the idle window: the session survives.
  EXPECT_EQ(server_.session_count(), 1u);

  sim_.RunFor(Seconds(1));
  EXPECT_EQ(server_.session_count(), 0u);
  EXPECT_EQ(server_.card_count(), 0u);
  EXPECT_EQ(server_.lifecycle_stats().evictions, 1);
  EXPECT_EQ(server_.FindSession(id), nullptr);
  EXPECT_EQ(server_.session_state(id), SessionState::kDetached);

  // The card still authenticates; re-inserting it starts a fresh session (the old desktop
  // is gone — that is what eviction means).
  console_a_.InsertCard(server_.node(), card_);
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(server_.session_count(), 1u);
  ServerSession* fresh = server_.SessionForCard(card_);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh->id(), id);
  EXPECT_TRUE(fresh->attached());
}

TEST_F(EvictionFixture, ReattachCancelsEviction) {
  ServerSession& session = AttachedAt(console_a_);
  console_a_.RemoveCard(server_.node(), card_);
  sim_.RunFor(Milliseconds(50));
  console_a_.InsertCard(server_.node(), card_);  // back before the idle window expires
  sim_.RunFor(Seconds(1));
  EXPECT_TRUE(session.attached());
  EXPECT_EQ(server_.session_count(), 1u);
  EXPECT_EQ(server_.lifecycle_stats().evictions, 0);
}

TEST(SessionDirectoryTest, RebindingACardEvictsTheOldSessionInsteadOfDangling) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& first = server.CreateSession(card);
  const uint32_t first_id = first.id();
  ServerSession& second = server.CreateSession(card);

  // Before the fix, the first session stayed alive in sessions_ with no card mapping —
  // unreachable, unevictable, and growing without bound under churn.
  EXPECT_NE(second.id(), first_id);
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_EQ(server.card_count(), 1u);
  EXPECT_EQ(server.FindSession(first_id), nullptr);
  EXPECT_EQ(server.SessionForCard(card), &second);
  EXPECT_EQ(server.lifecycle_stats().evictions, 1);
}

// --- Churn under chaos -------------------------------------------------------------------

// The acceptance property: a card storming between two consoles over a fabric that loses
// one datagram in ten — including the attach/detach/release control messages themselves —
// must end with exactly one console attached, the other blanked, and the winner bit-exact.
TEST(ChurnChaosTest, HotdeskStormOverLossyFabricConverges) {
  Simulator sim;
  Fabric fabric(&sim, {});
  ServerOptions options = LivenessOptions(Milliseconds(50), Milliseconds(400), 8);
  SlimServer server(&sim, &fabric, options);
  Console a(&sim, &fabric, ConsoleOptions{});
  Console b(&sim, &fabric, ConsoleOptions{});
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);

  FaultProfile lossy;
  lossy.loss = 0.1;
  lossy.delay_jitter = Milliseconds(1);
  for (const Console* c : {&a, &b}) {
    fabric.InjectFaults(server.node(), c->node(), lossy);
    fabric.InjectFaults(c->node(), server.node(), lossy);
  }

  a.InsertCard(server.node(), card);
  sim.RunFor(Milliseconds(200));

  Rng rng(71);
  Console* holder = &a;
  for (int i = 0; i < 24; ++i) {
    if (rng.NextBool(0.25)) {
      holder->RemoveCard(server.node(), card);  // sometimes a clean pull first
      sim.RunFor(Milliseconds(20));
    }
    holder = rng.NextBool(0.5) ? &a : &b;
    holder->InsertCard(server.node(), card);
    sim.RunFor(Milliseconds(20));
    // Some churn traffic so handoffs happen mid-stream, not on an idle screen.
    if (session.attached()) {
      session.FillRect(Rect{static_cast<int32_t>(rng.NextBelow(1000)),
                            static_cast<int32_t>(rng.NextBelow(800)), 64, 64},
                       MakePixel(static_cast<uint8_t>(rng.NextBelow(255)), 64, 64));
      session.Flush();
    }
  }

  // Settle on console A — re-insert until the attach wins against the loss — then heal
  // with forced repaints. Faults stay active throughout: convergence must beat the still
  // lossy fabric, not a conveniently healed one.
  Console* winner = &a;
  Console* loser = &b;
  bool converged = false;
  for (int round = 0; round < 40 && !converged; ++round) {
    if (!session.attached() || session.console() != winner->node()) {
      winner->InsertCard(server.node(), card);
    } else {
      session.ForceRepaintAll();
      session.Flush();
    }
    sim.RunFor(Milliseconds(100));
    converged = session.attached() && session.console() == winner->node() &&
                session.framebuffer().ContentHash() == winner->framebuffer().ContentHash();
  }
  EXPECT_TRUE(converged) << "hotdesk churn never converged on the final console";

  // No stuck or double-attached state: exactly one session, attached exactly once.
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_EQ(server.card_count(), 1u);
  EXPECT_EQ(server.session_state(session.id()), SessionState::kAttached);

  // The loser ends blanked even though individual release notices were droppable — the
  // bounded re-sends make the blank reliable. Give any trailing re-send time to land.
  sim.RunFor(Milliseconds(300));
  EXPECT_EQ(loser->framebuffer().ContentHash(),
            Framebuffer(loser->framebuffer().width(), loser->framebuffer().height())
                .ContentHash());
  EXPECT_GT(server.lifecycle_stats().hotdesk_handoffs, 0);
  EXPECT_GT(server.lifecycle_stats().releases_sent, 0);
  // And the winner is still live (keepalive saw it the whole time).
  EXPECT_EQ(server.lifecycle_stats().keepalive_timeouts, 0);
}

}  // namespace
}  // namespace slim
