// Multiprocessor time-sharing scheduler simulation.
//
// Drives the processor-sharing experiments (paper Section 6.1, Figures 9 and 10). The model
// is a multilevel-feedback scheduler in the spirit of the Solaris TS class the paper ran on:
// a process that voluntarily sleeps (an interactive burst) re-enters at the highest priority,
// while a process that keeps consuming quanta is demoted toward the bottom level. This is
// the mechanism that lets the paper oversubscribe a CPU by 50-70% while the interactive
// yardstick still sees tolerable latency: backlogged load-generator processes decay into CPU
// hogs and the freshly-woken yardstick preempts them.
//
// Memory is accounted too: when the resident set of all processes exceeds RAM, every quantum
// is stretched by a paging penalty that grows with the overcommit ratio (the E4500's swap
// behaviour, coarse-grained).

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace slim {

struct SchedulerOptions {
  int cpus = 1;
  int64_t ram_bytes = 4LL * 1024 * 1024 * 1024;
};

class MpScheduler {
 public:
  using CompletionFn = std::function<void()>;

  MpScheduler(Simulator* sim, SchedulerOptions options);

  // Registers a process and returns its id. resident_bytes joins the memory accounting.
  int AddProcess(int64_t resident_bytes);
  void SetResidentBytes(int pid, int64_t bytes);

  // Submits a CPU burst for pid. The process must not have a burst in flight (sequential
  // execution, like a single-threaded application); returns false and ignores the burst
  // otherwise. `interactive` marks a burst that follows a voluntary sleep (enters at the
  // top priority level); a false value enqueues at the bottom (pure background work).
  bool Submit(int pid, SimDuration cpu_time, bool interactive, CompletionFn on_complete);

  bool HasBurstInFlight(int pid) const;

  // Total CPU time executed so far across all CPUs.
  SimDuration busy_time() const { return busy_time_; }
  // Utilization over [0, now] given the configured CPU count.
  double Utilization() const;

  int cpus() const { return options_.cpus; }
  int64_t total_resident_bytes() const { return total_resident_; }
  double MemoryOvercommit() const;

 private:
  struct Burst {
    int pid = -1;
    SimDuration remaining = 0;
    int level = 0;
    CompletionFn on_complete;
  };

  void TryDispatch();
  void RunSlice(int cpu, Burst burst);

  Simulator* sim_;
  SchedulerOptions options_;
  std::vector<std::deque<Burst>> queues_;  // one per priority level
  std::vector<bool> cpu_busy_;
  std::vector<int64_t> resident_;
  std::vector<bool> in_flight_;
  int64_t total_resident_ = 0;
  SimDuration busy_time_ = 0;
};

}  // namespace slim

#endif  // SRC_SCHED_SCHEDULER_H_
