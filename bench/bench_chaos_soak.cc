// Chaos soak harness: one interactive session per fault profile, from a healthy fabric up
// to a seriously sick one, reporting what the chaos layer injected, what the transport's
// recovery machinery did about it, and whether the console converged pixel-identically.
//
// Not a paper figure — this exercises the failure model behind Section 2.2's claim that
// SLIM needs no reliable transport: every fault class must be repaired by NACK replay plus
// idempotent reapplication, at a bounded overhead in repaint rounds and replayed bytes.
//
//   SLIM_SOAK_EVENTS  input events per profile (default 300)

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/apps/benchmark_apps.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/latency_audit.h"
#include "src/obs/metrics.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/table.h"

namespace {

struct ProfileRow {
  const char* name;
  slim::FaultProfile profile;
};

}  // namespace

int main() {
  using namespace slim;
  PrintHeader("Chaos soak - session recovery under fabric fault injection",
              "Schmidt et al., SOSP'99, Section 2.2 (error recovery)");
  // SLIM_TRACE=out.json captures the recovery machinery as a Chrome trace: NACK instants,
  // replay stalls (missing-seq -> replayed/given-up spans) and the decode pipeline.
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  // When SLIM_TRACE is off, the flight recorder's ring buffer stands in as the global
  // tracer so SLO breaches can still dump the last few thousand events as a Chrome trace.
  ScopedFlightRecorder flight;
  BenchReporter report = HarnessReport("chaos_soak",
                                       "Session recovery under fabric fault injection");

  const int events = ScaleKnob(&report, "SLIM_SOAK_EVENTS", 300);
  // Flight dumps land next to the bench report by default so a default soak run leaves
  // inspectable evidence for every breach (SLIM_FLIGHT_DIR overrides).
  std::string flight_dir = EnvPath("SLIM_FLIGHT_DIR");
  if (flight_dir.empty()) {
    flight_dir = EnvPath("SLIM_BENCH_DIR");
  }
  LatencyAuditOptions audit_options;
  audit_options.flight_dir = flight_dir.empty() ? std::string(".") : flight_dir;
  int64_t total_breaches = 0;
  int64_t total_flight_dumps = 0;
  std::vector<ProfileRow> rows;
  rows.push_back({"healthy", {}});
  {
    FaultProfile p;
    p.loss = 0.02;
    rows.push_back({"lossy-2%", p});
  }
  {
    FaultProfile p;
    p.loss = 0.05;
    p.duplicate = 0.02;
    p.delay_jitter = Milliseconds(2);
    rows.push_back({"lossy+dup+jitter", p});
  }
  {
    FaultProfile p;
    p.loss = 0.05;
    p.duplicate = 0.02;
    p.corrupt = 0.02;
    p.truncate = 0.01;
    p.delay_jitter = Milliseconds(2);
    rows.push_back({"hostile", p});
  }
  {
    FaultProfile p;
    p.loss = 0.10;
    p.duplicate = 0.05;
    p.corrupt = 0.05;
    p.truncate = 0.02;
    p.delay_jitter = Milliseconds(5);
    rows.push_back({"very-sick", p});
  }

  TextTable table({"profile", "dropped", "dup", "corrupt", "trunc", "nacks", "replays",
                   "cksum-rejects", "slo-breach", "heal-rounds", "converged"});
  for (const ProfileRow& row : rows) {
    Simulator sim;
    Fabric fabric(&sim, {});
    SlimServer server(&sim, &fabric, {});
    Console console(&sim, &fabric, {});
    // A fresh registry per profile: the same counters the table below reads through the
    // legacy struct accessors, now visible as one named snapshot.
    MetricRegistry registry;
    fabric.RegisterMetrics(&registry);
    server.RegisterMetrics(&registry);
    console.RegisterMetrics(&registry);
    // Per-keystroke latency audit: every input event is tracked dispatch -> present and
    // checked against the interactive SLO; breaches dump the flight recorder's ring.
    LatencyAudit audit(audit_options);
    audit.RegisterMetrics(&registry);
    LatencyAudit::SetGlobal(&audit);
    // SLIM_STATS_JSONL=<path> streams this registry for `slimtop -f` (each profile rewrites
    // the file, so the surviving stream is the sickest fabric's).
    auto streamer = MaybeStreamStats(&sim, &registry);
    const uint64_t card = server.auth().IssueCard(1);
    ServerSession& session = server.CreateSession(card);
    auto app = MakeApplication(AppKind::kPim, &session, 1234);
    app->BindInput();
    if (row.profile.active()) {
      fabric.InjectFaults(server.node(), console.node(), row.profile);
      fabric.InjectFaults(console.node(), server.node(), row.profile);
    }
    console.InsertCard(server.node(), card);
    sim.Run();
    app->Start();
    sim.Run();
    Rng rng(55);
    for (int i = 0; i < events; ++i) {
      if (rng.NextBool(0.8)) {
        console.SendKey(server.node(), session.id(),
                        static_cast<uint32_t>(rng.NextBelow(997)), true);
      } else {
        console.SendMouse(server.node(), session.id(),
                          static_cast<int32_t>(rng.NextBelow(1280)),
                          static_cast<int32_t>(rng.NextBelow(1024)), 1, false);
      }
      sim.RunUntil(sim.now() + Milliseconds(25));
    }
    sim.Run();
    int heal_rounds = 0;
    bool converged =
        std::ranges::equal(session.framebuffer().data(), console.framebuffer().data());
    // Forced: loss desyncs the console from the damage tracker's shadow, and a refined
    // repaint of a "clean" shadow would transmit nothing.
    while (!converged && heal_rounds < 30) {
      ++heal_rounds;
      session.ForceRepaintAll();
      session.Flush();
      sim.Run();
      converged =
          std::ranges::equal(session.framebuffer().data(), console.framebuffer().data());
    }
    // Settle outstanding display commands, then close the audit ledger: anything still
    // open (e.g. lost past the transport's give-up horizon) is folded in as incomplete.
    audit.FinalizeAll();
    const FaultStats& f = fabric.fault_stats();
    const EndpointStats& cs = console.endpoint().stats();
    const EndpointStats& ss = server.endpoint().stats();
    table.AddRow(
        {row.name, Format("%lld", static_cast<long long>(f.datagrams_dropped)),
         Format("%lld", static_cast<long long>(f.datagrams_duplicated)),
         Format("%lld", static_cast<long long>(f.datagrams_corrupted)),
         Format("%lld", static_cast<long long>(f.datagrams_truncated)),
         Format("%lld", static_cast<long long>(cs.nacks_sent + ss.nacks_sent)),
         Format("%lld", static_cast<long long>(cs.replays_sent + ss.replays_sent)),
         Format("%lld", static_cast<long long>(cs.datagrams_corrupted +
                                               ss.datagrams_corrupted)),
         Format("%lld", static_cast<long long>(audit.breaches())),
         Format("%d", heal_rounds), converged ? "yes" : "NO"});
    const std::string base = row.name;
    report.Metric(base + ".nacks", cs.nacks_sent + ss.nacks_sent, "count");
    report.Metric(base + ".replays", cs.replays_sent + ss.replays_sent, "count");
    report.Metric(base + ".cksum_rejects", cs.datagrams_corrupted + ss.datagrams_corrupted,
                  "count");
    report.Metric(base + ".heal_rounds", int64_t{heal_rounds}, "rounds");
    report.Metric(base + ".converged", int64_t{converged ? 1 : 0}, "bool");
    report.Metric(base + ".audit_events", audit.events_completed(), "count");
    report.Metric(base + ".slo_breaches", audit.breaches(), "count");
    report.Metric(base + ".gave_up", audit.gave_up(), "count");
    report.Metric(base + ".flight_dumps", audit.flight_dumps(), "count");
    total_breaches += audit.breaches();
    total_flight_dumps += audit.flight_dumps();
    // The last profile's full registry snapshot rides along in the report (every profile
    // overwrites the previous, so the surviving one is the sickest fabric) — including the
    // session.latency.* histograms the audit just finalized.
    report.AttachSnapshot(registry);
    LatencyAudit::SetGlobal(nullptr);
  }
  std::printf("%s", table.Render().c_str());
  if (total_breaches > 0) {
    std::printf("SLO breaches across profiles: %lld (%lld flight dumps in %s)\n",
                static_cast<long long>(total_breaches),
                static_cast<long long>(total_flight_dumps),
                audit_options.flight_dir.c_str());
  }
  return 0;
}
