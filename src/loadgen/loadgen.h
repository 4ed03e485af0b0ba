// Trace-driven load generation and the two yardstick applications (paper Section 6).
//
// LoadGeneratorProcess replays a ResourceProfile's CPU and memory consumption on an
// MpScheduler: within each five-second interval it issues the interval's CPU demand as a
// sequence of short bursts. Demand a saturated system cannot absorb within the interval is
// discarded at the interval boundary — the paper's generator "utilizes the same quantity of
// resources in each time interval as the original application did", which bounds backlog and
// is what lets the system run stably while oversubscribed.
//
// CpuYardstick is the Section 6.1 probe: it repeatedly consumes 30 ms of CPU, then thinks
// for 150 ms, and records how much longer than 30 ms each burst took (the "added latency"
// of Figures 9 and 10).
//
// TrafficGenerator and NetYardstick are the Section 6.2 equivalents for the IF-sharing
// experiment: background flows replay the network portion of the profiles toward a sink,
// and the yardstick sends a 64-byte command packet, receives a 1200-byte response, thinks
// 150 ms, and records round-trip times (Figure 11).

#ifndef SRC_LOADGEN_LOADGEN_H_
#define SRC_LOADGEN_LOADGEN_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/loadgen/profile.h"
#include "src/net/fabric.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"

namespace slim {

class LoadGeneratorProcess {
 public:
  // One interval's demand is issued as interactive-event-sized CPU bursts (the profile's
  // event_burst; an application handling one user event runs tens of milliseconds),
  // separated by sleeps that pace the bursts evenly across the interval. Each burst
  // therefore enters the scheduler with the interactive boost, exactly like the real
  // applications whose profiles are being replayed.

  LoadGeneratorProcess(Simulator* sim, MpScheduler* sched, ResourceProfile profile,
                       Rng rng);

  void Start();

  SimDuration cpu_consumed() const { return cpu_consumed_; }
  SimDuration cpu_discarded() const { return cpu_discarded_; }

 private:
  void BeginInterval(size_t index);
  void PumpBurst();

  Simulator* sim_;
  MpScheduler* sched_;
  ResourceProfile profile_;
  Rng rng_;
  int pid_ = -1;
  size_t interval_index_ = 0;
  SimTime interval_end_ = 0;
  SimDuration interval_budget_ = 0;
  SimDuration cpu_consumed_ = 0;
  SimDuration cpu_discarded_ = 0;
  bool idle_since_sleep_ = true;
};

class CpuYardstick {
 public:
  static constexpr SimDuration kBurst = Milliseconds(30);
  static constexpr SimDuration kThink = Milliseconds(150);

  CpuYardstick(Simulator* sim, MpScheduler* sched);

  void Start();

  // Added latency samples in milliseconds (wall time of each burst minus 30 ms).
  const std::vector<double>& added_latency_ms() const { return samples_; }
  double AverageAddedLatencyMs() const;

 private:
  void RunCycle();

  Simulator* sim_;
  MpScheduler* sched_;
  int pid_ = -1;
  std::vector<double> samples_;
};

// The Section 6.1 experiment behind Figures 9 and 10: `users` load generators replaying
// `kind` profiles share `cpus` CPUs and 4 GB of RAM with a CpuYardstick for `horizon`.
// Returns the yardstick's average added latency in ms.
double CpuSharingAddedLatencyMs(AppKind kind, int users, int cpus, SimDuration horizon,
                                uint64_t seed);

// Background traffic source for the IF-sharing experiment: replays a profile's network
// bytes as display-update-sized datagram bursts from `src` to `sink`.
class TrafficGenerator {
 public:
  TrafficGenerator(Simulator* sim, Fabric* fabric, NodeId src, NodeId sink,
                   ResourceProfile profile, Rng rng);

  void Start();
  int64_t bytes_offered() const { return bytes_offered_; }

 private:
  void BeginInterval(size_t index);
  void SendBurst();

  Simulator* sim_;
  Fabric* fabric_;
  NodeId src_;
  NodeId sink_;
  ResourceProfile profile_;
  Rng rng_;
  size_t interval_index_ = 0;
  SimTime interval_end_ = 0;
  int64_t interval_bytes_left_ = 0;
  int64_t bytes_offered_ = 0;
};

// Round-trip probe: 64 B request to the echo node, 1200 B reply, 150 ms think time.
// The echo responder must be installed on the peer with InstallEchoResponder.
class NetYardstick {
 public:
  static constexpr int64_t kRequestBytes = 64;
  static constexpr int64_t kResponseBytes = 1200;
  static constexpr SimDuration kThink = Milliseconds(150);
  // A probe unanswered for this long counts as lost and a new cycle starts.
  static constexpr SimDuration kTimeout = Milliseconds(500);

  NetYardstick(Simulator* sim, Fabric* fabric, NodeId self, NodeId server);

  void Start();

  const std::vector<double>& rtt_ms() const { return samples_; }
  double AverageRttMs() const;
  int64_t timeouts() const { return timeouts_; }

 private:
  void SendProbe();

  Simulator* sim_;
  Fabric* fabric_;
  NodeId self_;
  NodeId server_;
  uint64_t next_probe_id_ = 1;
  uint64_t awaiting_probe_id_ = 0;
  SimTime probe_sent_at_ = 0;
  EventId timeout_event_ = kInvalidEventId;
  std::vector<double> samples_;
  int64_t timeouts_ = 0;
};

// Makes `node` respond to NetYardstick probes with kResponseBytes-sized replies and absorb
// all other traffic (the experiment's sink/server role).
void InstallEchoResponder(Fabric* fabric, NodeId node);

}  // namespace slim

#endif  // SRC_LOADGEN_LOADGEN_H_
