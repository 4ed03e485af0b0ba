// Session churn harness: a pool of users hotdesking between consoles while the fabric
// misbehaves, reporting what the lifecycle layer did about it — attaches, handoffs,
// releases, keepalive timeouts, evictions, transmit-queue pressure — and whether every
// surviving session converged bit-exact on its final console.
//
// Not a paper figure — this exercises Section 2.4's session manager (the desktop that
// "follows" the smart card) at a churn rate the paper never measured, over fabrics from
// healthy to hostile. The invariant under test: however the control messages are lost or
// delayed, the directory ends with one console per session, released consoles blank, and
// the winner pixel-identical.
//
//   SLIM_CHURN_SESSIONS  concurrent user sessions        (default 4)
//   SLIM_CHURN_CONSOLES  consoles they roam across       (default 6)
//   SLIM_CHURN_OPS       card insert/remove operations   (default 120)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/content.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace {

struct ProfileRow {
  const char* name;
  slim::FaultProfile profile;
};

}  // namespace

int main() {
  using namespace slim;
  PrintHeader("Session churn - lifecycle hardening under hotdesk storms",
              "Schmidt et al., SOSP'99, Section 2.4 (session manager / hotdesking)");
  ScopedTraceFile trace(EnvPath("SLIM_TRACE"));
  BenchReporter report = HarnessReport("session_churn",
                                       "Hotdesk churn and console liveness under chaos");

  const int n_sessions = ScaleKnob(&report, "SLIM_CHURN_SESSIONS", 4);
  const int n_consoles = ScaleKnob(&report, "SLIM_CHURN_CONSOLES", 6);
  const int n_ops = ScaleKnob(&report, "SLIM_CHURN_OPS", 120);

  std::vector<ProfileRow> rows;
  rows.push_back({"healthy", {}});
  {
    FaultProfile p;
    p.loss = 0.10;
    p.delay_jitter = Milliseconds(1);
    rows.push_back({"lossy-10%", p});
  }
  {
    FaultProfile p;
    p.loss = 0.10;
    p.duplicate = 0.03;
    p.corrupt = 0.02;
    p.delay_jitter = Milliseconds(3);
    rows.push_back({"hostile", p});
  }

  TextTable table({"profile", "attaches", "handoffs", "detaches", "timeouts", "evictions",
                   "releases", "txq-max", "heal-rounds", "converged"});
  for (const ProfileRow& row : rows) {
    Simulator sim;
    Fabric fabric(&sim, {});
    ServerOptions options;
    options.model_cpu_delay = true;
    options.lifecycle.keepalive_interval = Milliseconds(50);
    options.lifecycle.keepalive_timeout = Milliseconds(400);
    options.lifecycle.max_missed_probes = 8;
    options.lifecycle.evict_after = Seconds(3);
    SlimServer server(&sim, &fabric, options);
    MetricRegistry registry;
    fabric.RegisterMetrics(&registry);
    server.RegisterMetrics(&registry);

    std::vector<std::unique_ptr<Console>> consoles;
    for (int i = 0; i < n_consoles; ++i) {
      consoles.push_back(std::make_unique<Console>(&sim, &fabric, ConsoleOptions{}));
      consoles.back()->RegisterMetrics(&registry, "console" + std::to_string(i));
      if (row.profile.active()) {
        fabric.InjectFaults(server.node(), consoles.back()->node(), row.profile);
        fabric.InjectFaults(consoles.back()->node(), server.node(), row.profile);
      }
    }
    std::vector<uint64_t> cards;
    for (int u = 0; u < n_sessions; ++u) {
      cards.push_back(server.auth().IssueCard(static_cast<uint32_t>(u + 1)));
      server.CreateSession(cards.back());
      consoles[u % n_consoles]->InsertCard(server.node(), cards.back());
    }
    sim.RunFor(Milliseconds(200));

    // The storm: random users pull their card, reappear at random consoles, and keep
    // drawing so handoffs happen mid-stream. All pacing is RunFor — with keepalive armed
    // the event queue never drains, so Run() would never return.
    Rng rng(0x5e551 + static_cast<uint64_t>(rows.size()));
    for (int op = 0; op < n_ops; ++op) {
      const uint64_t card = cards[rng.NextBelow(cards.size())];
      Console& target = *consoles[rng.NextBelow(consoles.size())];
      if (rng.NextBool(0.2)) {
        target.RemoveCard(server.node(), card);
      } else {
        target.InsertCard(server.node(), card);
      }
      if (ServerSession* session = server.SessionForCard(card);
          session != nullptr && session->attached()) {
        session->FillRect(Rect{static_cast<int32_t>(rng.NextBelow(1100)),
                               static_cast<int32_t>(rng.NextBelow(900)), 96, 64},
                          MakePixel(static_cast<uint8_t>(rng.NextBelow(255)),
                                    static_cast<uint8_t>(rng.NextBelow(255)), 80));
        session->Flush();
      }
      sim.RunFor(Milliseconds(25));
    }

    // Settle: each surviving card gets a home console and heals with forced repaints,
    // faults still active. Sessions evicted during the storm come back fresh on insert.
    int heal_rounds = 0;
    int converged = 0;
    for (int u = 0; u < n_sessions; ++u) {
      Console& home = *consoles[u % n_consoles];
      bool done = false;
      for (int round = 0; round < 40 && !done; ++round) {
        ServerSession* session = server.SessionForCard(cards[u]);
        if (session == nullptr || !session->attached() ||
            session->console() != home.node()) {
          home.InsertCard(server.node(), cards[u]);
        } else {
          ++heal_rounds;
          session->ForceRepaintAll();
          session->Flush();
        }
        sim.RunFor(Milliseconds(100));
        session = server.SessionForCard(cards[u]);
        done = session != nullptr && session->attached() &&
               session->console() == home.node() &&
               std::ranges::equal(session->framebuffer().data(), home.framebuffer().data());
      }
      converged += done ? 1 : 0;
    }

    const LifecycleStats& ls = server.lifecycle_stats();
    table.AddRow({row.name, Format("%lld", static_cast<long long>(ls.attaches)),
                  Format("%lld", static_cast<long long>(ls.hotdesk_handoffs)),
                  Format("%lld", static_cast<long long>(ls.detaches)),
                  Format("%lld", static_cast<long long>(ls.keepalive_timeouts)),
                  Format("%lld", static_cast<long long>(ls.evictions)),
                  Format("%lld", static_cast<long long>(ls.releases_sent)),
                  Format("%lld", static_cast<long long>(server.tx_queue().max_depth())),
                  Format("%d", heal_rounds),
                  Format("%d/%d", converged, n_sessions)});
    const std::string base = row.name;
    report.Metric(base + ".attaches", ls.attaches, "count");
    report.Metric(base + ".hotdesk_handoffs", ls.hotdesk_handoffs, "count");
    report.Metric(base + ".detaches", ls.detaches, "count");
    report.Metric(base + ".keepalive_timeouts", ls.keepalive_timeouts, "count");
    report.Metric(base + ".evictions", ls.evictions, "count");
    report.Metric(base + ".releases_sent", ls.releases_sent, "count");
    report.Metric(base + ".txq_max_depth", server.tx_queue().max_depth(), "msgs");
    report.Metric(base + ".heal_rounds", int64_t{heal_rounds}, "rounds");
    report.Metric(base + ".converged", int64_t{converged}, "sessions");
    // The surviving snapshot is the hostile profile's (each overwrites the last): the
    // lifecycle counters and per-console release/ping counters as named metrics.
    report.AttachSnapshot(registry);
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}
