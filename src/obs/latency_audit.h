// Per-input-event latency ledger: the runtime that *watches* interactive latency.
//
// The paper's whole argument is per-keystroke service time, and its methodology (§3.1) is
// to log every protocol event and post-process. The registry + tracer cover the logging
// half; this is the watching half. Every input event delivered to a ServerSession opens a
// ledger entry keyed by the tracer's input_id; cheap stamps wired into the pipeline record
// when each stage happened:
//
//   dispatch -> render -> encode -> wire_cpu   (modeled CPU, stamped by ServerSession)
//   -> txq                                     (departure from the shared TransmitQueue)
//   -> network / replay                        (fabric flight time; NACK-replay stalls
//                                               reported by the receiving SlimEndpoint)
//   -> decode -> present                       (console busy-pipeline, stamped by Console)
//
// Server->console display commands are correlated by (console NodeId, transport seq): the
// TransmitQueue knows which input is being dispatched when a display command leaves, and
// the console knows the seq of every command it decodes.
//
// A completed event folds into per-stage and per-session ExpHistograms (registered as
// `session.latency.*`) and is checked against the interactive budget (default 150 ms of
// sim time). A breach is counted, attributed to its dominant stage, and — when a flight
// directory is configured — the global tracer (normally the always-on FlightRecorder
// ring) is dumped as Chrome trace JSON for post-mortem. Transport give-ups
// and forced detaches dump too: those are the events a later repaint papers over.
//
// Threading: every stamp happens on the simulation thread, so like every registry cell
// the ledger is single-writer and lock-free; see the ownership rule in src/obs/metrics.h.

#ifndef SRC_OBS_LATENCY_AUDIT_H_
#define SRC_OBS_LATENCY_AUDIT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/net/fabric.h"
#include "src/util/time.h"

namespace slim {

class ExpHistogram;
class MetricRegistry;

// Pipeline stages an end-to-end latency decomposes into; kStageCount-sized arrays are
// indexed by these.
enum LatencyStage {
  kStageRender = 0,
  kStageEncode,
  kStageWireCpu,
  kStageTxq,
  kStagePace,  // wire-pacing stall: the token bucket held the departure for the grant
  kStageNetwork,
  kStageReplay,
  kStageDecode,
  kStageCount,
};
const char* LatencyStageName(int stage);

struct LatencyAuditOptions {
  // Interactive budget checked against each event's end-to-end sim time: the
  // conventional 150 ms "feels instantaneous" limit the paper's Figure 7 discussion leans
  // on.
  SimDuration slo = 150 * kMillisecond;
  // Directory breach/give-up/detach dumps are written to; empty disables dumping. The
  // harness chooses it (bench_chaos_soak: SLIM_FLIGHT_DIR, else its report directory).
  std::string flight_dir;
};

class LatencyAudit {
 public:
  // At most this many dump files per audit (the first incidents are the informative ones).
  static constexpr int64_t kMaxFlightDumps = 8;
  // Ledger bound: oldest still-open events are folded as incomplete beyond this.
  static constexpr size_t kMaxOpenEvents = 4096;

  explicit LatencyAudit(LatencyAuditOptions options = {});
  ~LatencyAudit();
  LatencyAudit(const LatencyAudit&) = delete;
  LatencyAudit& operator=(const LatencyAudit&) = delete;

  // --- Process-global audit (same pattern as Tracer::Global) ---
  // Null means auditing is off and every instrumentation point costs one branch.
  static LatencyAudit* Global() { return global_; }
  static void SetGlobal(LatencyAudit* audit) { global_ = audit; }

  // Registers the audit's counters and histograms under `<prefix>.*` and remembers the
  // registry so per-session e2e histograms (`<prefix>.s<id>.e2e_ns`) can be added lazily.
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "session.latency");

  // --- Server-side stamps ---
  // Opens the ledger entry for one input event and makes it current. `tracer_id` is the
  // id the Tracer assigned when tracing is on (so trace spans and audit rows share ids),
  // or -1 to have the audit assign its own. Returns the id in use.
  int64_t BeginInput(uint32_t session_id, SimTime now, int64_t tracer_id = -1);
  // Closes dispatch: the modeled CPU the input charged, stage by stage. The entry stays
  // open until its display commands present (or it had none).
  void EndInput(int64_t input_id, SimDuration render, SimDuration encode,
                SimDuration wire_cpu, SimTime now);
  int64_t current_input() const { return current_input_; }

  // A display command generated by `input_id` entered the transmit queue. Called
  // synchronously during dispatch (before EndInput), it holds the ledger entry open until
  // the command presents — the actual departure may be deferred behind the busy pipeline.
  void NoteEnqueued(int64_t input_id);
  // That command left the server's transmit queue for `console` as transport seq `seq` at
  // `departed` (== enqueue time unless the queue modeled CPU delay). `pace_delay` is the
  // part of the wait the per-session token bucket imposed (0 when unpaced), so a breach
  // caused by a bandwidth grant is attributed to `pace`, not lumped into `txq` or replay.
  void NoteDeparture(int64_t input_id, NodeId console, uint64_t seq, SimTime departed,
                     SimDuration pace_delay = 0);
  // A still-queued command of this input was cancelled before departing (its session was
  // purged from the transmit queue on release/eviction); close its slot in the ledger.
  void NotePurged(int64_t input_id);

  // --- Transport-side stamps (called by the *receiving* endpoint, node `self`) ---
  // A missing seq was resolved: `reason` is "replayed" (stall = now - since) or one of the
  // transport's give-up causes, which breach the event immediately.
  void NoteReplayResolved(NodeId self, uint64_t seq, SimTime since, SimTime now,
                          const char* reason);

  // --- Console-side stamps (node `self` = the console's endpoint) ---
  void NoteDecodeStart(NodeId self, uint64_t seq, SimTime arrival);
  void NotePresent(NodeId self, uint64_t seq, SimTime completion);
  // The command was dropped/rejected before presenting (queue overflow, validation, ...).
  void NoteConsoleDrop(NodeId self, uint64_t seq);

  // --- Lifecycle trigger ---
  // A session was forcibly detached (liveness timeout, eviction): dump-worthy incident.
  void NoteForcedDetach(uint32_t session_id, int reason, SimTime now);

  // --- Migration trigger ---
  // A migrated session re-attached on its destination server `blackout` after the source
  // froze it. Folds into `<prefix>.migration_blackout_ns` so migration outages are
  // attributed in the same ledger the per-keystroke stages land in, instead of showing up
  // only as a mysterious gap between presents.
  void NoteMigrationBlackout(uint32_t session_id, SimDuration blackout, SimTime now);
  int64_t migrations_observed() const { return migrations_observed_; }

  // Folds every still-open entry (end of run; incomplete entries are counted, not
  // breach-checked — their tail never happened).
  void FinalizeAll();

  // --- Read-back ---
  int64_t events_completed() const { return events_completed_; }
  int64_t events_incomplete() const { return events_incomplete_; }
  int64_t breaches() const { return breaches_; }
  int64_t gave_up() const { return gave_up_; }
  int64_t flight_dumps() const { return flight_dumps_; }
  int64_t breaches_by(int stage) const { return breach_by_stage_[stage]; }
  // The most recent breach, for harness summaries: input id and dominant stage index
  // (-1 / kStageCount when none yet).
  int64_t last_breach_input() const { return last_breach_input_; }
  int last_breach_stage() const { return last_breach_stage_; }
  const std::string& last_flight_path() const { return last_flight_path_; }

 private:
  struct OpenEvent {
    uint32_t session = 0;
    SimTime t_dispatch = 0;
    SimTime dispatch_done = 0;  // t_dispatch + modeled render/encode/wire CPU
    bool dispatched = false;    // EndInput seen
    SimDuration stage_cpu[3] = {0, 0, 0};  // render, encode, wire_cpu
    SimTime last_departure = 0;
    SimDuration pace_stall = 0;    // token-bucket stall of the latest-departing command
    SimTime final_arrival = 0;     // arrival of the latest-completing command
    SimTime last_completion = 0;   // latest decode completion (present time)
    SimDuration replay_stall = 0;  // accumulated NACK-replay stall across its seqs
    int outstanding = 0;           // departed display commands not yet presented/dropped
    bool gave_up = false;
  };

  void MaybeFinalize(int64_t input_id, OpenEvent& ev);
  void Finalize(int64_t input_id, OpenEvent& ev, bool complete);
  void RecordBreach(int64_t input_id, const OpenEvent& ev, int stage, const char* reason);
  void DumpFlight(int64_t input_id, int stage, const char* reason, SimTime now,
                  SimDuration e2e);
  ExpHistogram* SessionHistogram(uint32_t session_id);

  LatencyAuditOptions options_;
  MetricRegistry* registry_ = nullptr;
  std::string prefix_;

  int64_t next_input_id_ = 0;
  int64_t current_input_ = -1;
  std::map<int64_t, OpenEvent> open_;
  // (receiving node, transport seq) -> (input id, console arrival time or 0). Entries are
  // erased on present/drop/give-up, so the map is bounded by commands in flight.
  std::map<std::pair<NodeId, uint64_t>, std::pair<int64_t, SimTime>> in_flight_;

  // Counter cells (bound into the registry via BindCounter when one is attached);
  // histograms are registry-owned and stay null — Record skipped — without a registry.
  int64_t events_completed_ = 0;
  int64_t events_incomplete_ = 0;
  int64_t breaches_ = 0;
  int64_t gave_up_ = 0;
  int64_t flight_dumps_ = 0;
  int64_t breach_by_stage_[kStageCount] = {};
  int64_t migrations_observed_ = 0;
  ExpHistogram* migration_blackout_hist_ = nullptr;
  ExpHistogram* e2e_hist_ = nullptr;
  ExpHistogram* stage_hist_[kStageCount] = {};
  std::map<uint32_t, ExpHistogram*> session_hist_;

  int64_t last_breach_input_ = -1;
  int last_breach_stage_ = kStageCount;
  std::string last_flight_path_;

  static LatencyAudit* global_;
};

}  // namespace slim

#endif  // SRC_OBS_LATENCY_AUDIT_H_
