// The benchmark's three workloads. Each builds its inputs from the seed once, then runs
// any number of identical rounds: a fresh world is built and set up (timed as setup),
// the timed phase injects the ops, and the outputs are checked outside the timed phase.
// Rounds of one seed reproduce every simulated-time result exactly.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/util/time.h"

namespace perfbench {

// Deterministic per-layer counts over a round's timed phase.
struct LayerCounts {
  int64_t events = 0;       // simulator events executed
  int64_t commands = 0;     // display commands queued (ServerSession::encode_stats)
  int64_t wire_bytes = 0;   // their wire bytes
  int64_t raw_bytes = 0;    // their uncompressed bytes (3 per pixel)
  int64_t damaged_px = 0;   // pending_damage() area before each handler Flush
  int64_t encoded_px = 0;   // pixels those Flush calls encoded
  int64_t datagrams = 0;    // fabric datagrams sent, every node
  int64_t nacks = 0;        // SlimEndpoint NACKs sent, every endpoint
  int64_t replays = 0;      // SlimEndpoint replays sent, every endpoint
  int64_t txq_max_depth = 0;  // server transmit-queue depth, sampled after each op's send
  int64_t cscs_applied = 0;   // CSCS commands applied at the consoles
  int64_t cscs_hits = 0;      // of those, warm stream-cache hits
  int64_t console_dropped = 0;
  int64_t console_busy_ns = 0;  // summed over consoles
  int64_t consoles = 0;
  int64_t migration_chunk_bytes = 0;
  int64_t migration_rounds = 0;
  int64_t migration_retries = 0;
};

struct RoundResult {
  bool ok = true;
  std::string error;  // first failed check

  // Host time, raw nanoseconds.
  int64_t setup_ns = 0;
  std::vector<int64_t> op_ns;

  // Median probe time during the round; its op timings are normalized by it.
  double probe_ns = 0;

  // Exact results.
  int64_t ops = 0;
  int64_t ops_failed = 0;
  // Ops that met their deadline: on desktop and video, the update landed within the
  // interactive budget of the op's due time; on roaming, the move converged and its keys
  // landed.
  int64_t ops_on_time = 0;
  slim::SimDuration timed_sim = 0;
  int64_t display_bytes = 0;
  std::vector<double> latency_ms;  // per completed op with a display update, op order
  LayerCounts counts;
  // Workload-specific exact diagnostics, printed but not part of the metric set.
  std::vector<std::pair<std::string, double>> notes;

  void Fail(const std::string& why) {
    if (ok) {
      error = why;
    }
    ok = false;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds, sets up and (unless setup_only) runs one round.
  virtual RoundResult Round(Probe* probe, SpanRecorder* spans, bool setup_only) = 0;
  // One line describing the generated inputs (the self-test compares seeds on it).
  virtual std::string Describe() const = 0;
  // The tail percentile reported next to the median: the highest of p90 and p97.5 that
  // has at least kMinBeyond samples beyond it in one round, and that lies inside a dense
  // part of the workload's op distribution rather than in a gap between op classes.
  virtual double TailPercentile() const { return 0.9; }
};

// `scale` multiplies every workload's op count (1 = the measured configuration).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, double scale);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
