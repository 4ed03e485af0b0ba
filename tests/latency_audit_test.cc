// LatencyAudit tests: stage decomposition and SLO attribution at the unit level, flight
// dumps on breach, and a full server<->console session whose every keystroke must appear
// in the session.latency.* histograms.

#include "src/obs/latency_audit.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/apps/benchmark_apps.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace slim {
namespace {

int64_t HistCount(const MetricRegistry& registry, const std::string& name) {
  const JsonValue snapshot = registry.Snapshot();
  const JsonValue* hist = snapshot.Find("histograms")->Find(name);
  return hist != nullptr ? hist->Find("count")->as_int() : -1;
}

int64_t HistMax(const MetricRegistry& registry, const std::string& name) {
  const JsonValue snapshot = registry.Snapshot();
  const JsonValue* hist = snapshot.Find("histograms")->Find(name);
  return hist != nullptr ? hist->Find("max")->as_int() : -1;
}

TEST(LatencyAuditTest, InputWithoutDisplayOutputCompletesOnDispatch) {
  MetricRegistry registry;
  LatencyAudit audit;
  ASSERT_TRUE(audit.RegisterMetrics(&registry));
  const int64_t id = audit.BeginInput(/*session_id=*/7, /*now=*/0);
  EXPECT_EQ(audit.current_input(), id);
  audit.EndInput(id, Milliseconds(2), Milliseconds(1), Milliseconds(1), /*now=*/0);
  EXPECT_EQ(audit.current_input(), -1);
  EXPECT_EQ(audit.events_completed(), 1);
  EXPECT_EQ(audit.breaches(), 0);
  EXPECT_EQ(HistCount(registry, "session.latency.e2e_ns"), 1);
  // e2e = the modeled CPU: 2 + 1 + 1 ms.
  EXPECT_EQ(HistMax(registry, "session.latency.e2e_ns"), Milliseconds(4));
  EXPECT_EQ(HistCount(registry, "session.latency.s7.e2e_ns"), 1);
}

TEST(LatencyAuditTest, DisplayCommandDecomposesIntoTxqNetworkDecode) {
  MetricRegistry registry;
  LatencyAuditOptions options;
  options.slo = Milliseconds(10);  // force a breach so attribution is observable
  LatencyAudit audit(options);
  ASSERT_TRUE(audit.RegisterMetrics(&registry));
  const NodeId console = 5;
  const int64_t id = audit.BeginInput(1, /*now=*/0);
  audit.NoteEnqueued(id);  // a display command entered the txq during dispatch
  audit.EndInput(id, Milliseconds(1), Milliseconds(1), Milliseconds(1), /*now=*/0);
  EXPECT_EQ(audit.events_completed(), 0);  // still open: command outstanding
  audit.NoteDeparture(id, console, /*seq=*/42, /*departed=*/Milliseconds(10));
  audit.NoteDecodeStart(console, 42, /*arrival=*/Milliseconds(30));
  audit.NotePresent(console, 42, /*completion=*/Milliseconds(35));
  EXPECT_EQ(audit.events_completed(), 1);
  // e2e 35ms > 10ms slo; dominant stage is network: txq = 10-3 = 7ms,
  // network = 30-10 = 20ms, decode = 35-30 = 5ms.
  EXPECT_EQ(audit.breaches(), 1);
  EXPECT_EQ(audit.last_breach_input(), id);
  EXPECT_EQ(audit.last_breach_stage(), kStageNetwork);
  EXPECT_EQ(audit.breaches_by(kStageNetwork), 1);
  EXPECT_EQ(HistMax(registry, "session.latency.txq_ns"), Milliseconds(7));
  EXPECT_EQ(HistMax(registry, "session.latency.network_ns"), Milliseconds(20));
  EXPECT_EQ(HistMax(registry, "session.latency.decode_ns"), Milliseconds(5));
}

TEST(LatencyAuditTest, PaceStallAttributedToPaceNotTxq) {
  // A departure held back by a bandwidth grant's token bucket must show up as `pace`, so a
  // pacing-induced breach is distinguishable from CPU queueing (txq) and replay stalls.
  MetricRegistry registry;
  LatencyAuditOptions options;
  options.slo = Milliseconds(10);
  LatencyAudit audit(options);
  ASSERT_TRUE(audit.RegisterMetrics(&registry));
  const NodeId console = 5;
  const int64_t id = audit.BeginInput(1, /*now=*/0);
  audit.NoteEnqueued(id);
  audit.EndInput(id, Milliseconds(1), Milliseconds(1), Milliseconds(1), /*now=*/0);
  // Departed at 33ms, of which 25ms was the token bucket: txq keeps only the remainder.
  audit.NoteDeparture(id, console, /*seq=*/42, /*departed=*/Milliseconds(33),
                      /*pace_delay=*/Milliseconds(25));
  audit.NoteDecodeStart(console, 42, /*arrival=*/Milliseconds(34));
  audit.NotePresent(console, 42, /*completion=*/Milliseconds(35));
  EXPECT_EQ(audit.events_completed(), 1);
  EXPECT_EQ(HistMax(registry, "session.latency.pace_ns"), Milliseconds(25));
  EXPECT_EQ(HistMax(registry, "session.latency.txq_ns"), Milliseconds(5));  // 33 - 3 - 25
  EXPECT_EQ(audit.breaches(), 1);
  EXPECT_EQ(audit.last_breach_stage(), kStagePace);
  EXPECT_EQ(audit.breaches_by(kStagePace), 1);
}

TEST(LatencyAuditTest, PurgedCommandClosesItsSlot) {
  // A queued command cancelled by a transmit-queue purge (session release/eviction) must
  // not leave its input event dangling as incomplete forever.
  LatencyAudit audit;
  const int64_t id = audit.BeginInput(1, 0);
  audit.NoteEnqueued(id);
  audit.NoteEnqueued(id);
  audit.EndInput(id, 0, 0, Milliseconds(1), 0);
  EXPECT_EQ(audit.events_completed(), 0);
  audit.NotePurged(id);
  EXPECT_EQ(audit.events_completed(), 0);  // one command still outstanding
  audit.NotePurged(id);
  EXPECT_EQ(audit.events_completed(), 1);  // both purged: event folds as dispatched-only
}

TEST(LatencyAuditTest, DeferredDepartureAfterEndInputStillTracksTheTail) {
  // The transmit queue enqueues during dispatch but may send after EndInput; the entry
  // must stay open on NoteEnqueued alone or the tail is silently lost.
  LatencyAudit audit;
  const int64_t id = audit.BeginInput(1, 0);
  audit.NoteEnqueued(id);
  audit.EndInput(id, 0, 0, Milliseconds(1), 0);
  EXPECT_EQ(audit.events_completed(), 0);
  audit.NoteDeparture(id, 5, 9, Milliseconds(2));  // fired later by the deferred send
  audit.NoteDecodeStart(5, 9, Milliseconds(4));
  audit.NotePresent(5, 9, Milliseconds(5));
  EXPECT_EQ(audit.events_completed(), 1);
}

TEST(LatencyAuditTest, ReplayStallAccumulatesIntoReplayStage) {
  MetricRegistry registry;
  LatencyAudit audit;
  ASSERT_TRUE(audit.RegisterMetrics(&registry));
  const NodeId console = 5;
  const int64_t id = audit.BeginInput(1, 0);
  audit.NoteEnqueued(id);
  audit.EndInput(id, 0, 0, 0, 0);
  audit.NoteDeparture(id, console, 42, /*departed=*/Milliseconds(1));
  // The receiving endpoint noticed seq 42 missing at 5ms and got the replay at 25ms.
  audit.NoteReplayResolved(console, 42, /*since=*/Milliseconds(5), /*now=*/Milliseconds(25),
                           "replayed");
  audit.NoteDecodeStart(console, 42, /*arrival=*/Milliseconds(26));
  audit.NotePresent(console, 42, /*completion=*/Milliseconds(27));
  EXPECT_EQ(audit.events_completed(), 1);
  EXPECT_EQ(HistMax(registry, "session.latency.replay_ns"), Milliseconds(20));
  // Network = arrival - departure - replay stall = 26 - 1 - 20 = 5ms.
  EXPECT_EQ(HistMax(registry, "session.latency.network_ns"), Milliseconds(5));
  EXPECT_EQ(audit.breaches(), 0);
}

TEST(LatencyAuditTest, TransportGiveUpBreachesImmediatelyAsReplay) {
  LatencyAudit audit;
  const NodeId console = 5;
  const int64_t id = audit.BeginInput(3, 0);
  audit.NoteEnqueued(id);
  audit.EndInput(id, 0, 0, 0, 0);
  audit.NoteDeparture(id, console, 77, Milliseconds(1));
  audit.NoteReplayResolved(console, 77, /*since=*/Milliseconds(5), /*now=*/Milliseconds(90),
                           "gave_up_strikes");
  EXPECT_EQ(audit.gave_up(), 1);
  EXPECT_EQ(audit.breaches(), 1);  // give-up breaches regardless of e2e vs slo
  EXPECT_EQ(audit.events_completed(), 1);
  EXPECT_EQ(audit.last_breach_input(), id);
  EXPECT_EQ(audit.last_breach_stage(), kStageReplay);
}

TEST(LatencyAuditTest, FinalizeAllFoldsOpenEventsAsIncomplete) {
  LatencyAudit audit;
  const int64_t id = audit.BeginInput(1, 0);
  audit.NoteEnqueued(id);
  audit.EndInput(id, 0, 0, 0, 0);  // command never presents
  audit.FinalizeAll();
  EXPECT_EQ(audit.events_incomplete(), 1);
  EXPECT_EQ(audit.events_completed(), 0);
}

TEST(LatencyAuditTest, BreachDumpsFlightRecorderAsValidTrace) {
  FlightRecorder recorder(/*capacity=*/256);
  Tracer::SetGlobal(&recorder);
  LatencyAuditOptions options;
  options.slo = Milliseconds(10);
  options.flight_dir = testing::TempDir();
  LatencyAudit audit(options);
  recorder.Instant(0, "context_before_breach", "t", kTraceTidServer);
  const NodeId console = 5;
  const int64_t id = audit.BeginInput(1, 0);
  audit.NoteEnqueued(id);
  audit.EndInput(id, 0, 0, 0, 0);
  audit.NoteDeparture(id, console, 42, Milliseconds(1));
  audit.NoteDecodeStart(console, 42, Milliseconds(40));
  audit.NotePresent(console, 42, Milliseconds(41));
  Tracer::SetGlobal(nullptr);
  ASSERT_EQ(audit.flight_dumps(), 1);
  std::ifstream in(audit.last_flight_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << audit.last_flight_path();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto doc = JsonParse(buffer.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  // The dump names the breached input and its dominant stage in an audit.breach instant.
  bool found = false;
  for (const JsonValue& event : doc->as_array()) {
    const JsonValue* name = event.Find("name");
    if (name != nullptr && name->as_string() == "audit.breach") {
      found = true;
      EXPECT_EQ(event.Find("args")->Find("input_id")->as_int(), id);
      EXPECT_EQ(event.Find("args")->Find("stage")->as_string(), "network");
    }
  }
  EXPECT_TRUE(found) << "no audit.breach instant in the flight dump";
  std::remove(audit.last_flight_path().c_str());
}

TEST(LatencyAuditTest, FullSessionAuditsEveryKeystroke) {
  // End-to-end over a healthy fabric: every input event must complete through the real
  // dispatch -> txq -> transport -> console pipeline and land in the histograms.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  MetricRegistry registry;
  LatencyAudit audit;
  ASSERT_TRUE(audit.RegisterMetrics(&registry));
  LatencyAudit::SetGlobal(&audit);
  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  auto app = MakeApplication(AppKind::kPim, &session, 1234);
  app->BindInput();
  console.InsertCard(server.node(), card);
  sim.Run();
  app->Start();
  sim.Run();
  constexpr int kEvents = 40;
  Rng rng(99);
  for (int i = 0; i < kEvents; ++i) {
    console.SendKey(server.node(), session.id(), static_cast<uint32_t>(rng.NextBelow(997)),
                    true);
    sim.RunUntil(sim.now() + Milliseconds(25));
  }
  sim.Run();
  audit.FinalizeAll();
  LatencyAudit::SetGlobal(nullptr);
  EXPECT_EQ(audit.events_completed() + audit.events_incomplete(), kEvents);
  EXPECT_EQ(audit.events_incomplete(), 0);
  EXPECT_EQ(audit.breaches(), 0) << "healthy fabric should meet the 150ms budget";
  EXPECT_EQ(HistCount(registry, "session.latency.e2e_ns"), kEvents);
  EXPECT_EQ(HistCount(registry,
                      "session.latency.s" + std::to_string(session.id()) + ".e2e_ns"),
            kEvents);
  // Sanity on the decomposition: every stage histogram saw every event.
  for (const char* stage :
       {"render", "encode", "wire_cpu", "txq", "pace", "network", "decode"}) {
    EXPECT_EQ(HistCount(registry, std::string("session.latency.") + stage + "_ns"), kEvents)
        << stage;
  }
}

}  // namespace
}  // namespace slim
