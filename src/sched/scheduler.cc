#include "src/sched/scheduler.h"

#include <algorithm>

#include "src/util/check.h"

namespace slim {

namespace {

// Quantum at the upper priority levels; the bottom level runs 3x longer slices (the
// classic MLFQ trade of responsiveness at the top for efficiency at the bottom). Slices
// are not preempted mid-quantum, so a long bottom-level slice is exactly what delays a
// freshly-woken interactive burst.
constexpr SimDuration kQuantum = Milliseconds(10);
constexpr int kPriorityLevels = 3;
// Quantum stretch factor per unit of memory overcommit beyond RAM
// (slowdown = 1 + factor * max(0, resident/ram - 1)).
constexpr double kPagingPenalty = 4.0;

}  // namespace

MpScheduler::MpScheduler(Simulator* sim, SchedulerOptions options)
    : sim_(sim), options_(options) {
  SLIM_CHECK(sim != nullptr);
  SLIM_CHECK(options.cpus >= 1);
  queues_.resize(kPriorityLevels);
  cpu_busy_.assign(static_cast<size_t>(options.cpus), false);
}

int MpScheduler::AddProcess(int64_t resident_bytes) {
  const int pid = static_cast<int>(resident_.size());
  resident_.push_back(resident_bytes);
  in_flight_.push_back(false);
  total_resident_ += resident_bytes;
  return pid;
}

void MpScheduler::SetResidentBytes(int pid, int64_t bytes) {
  SLIM_CHECK(pid >= 0 && pid < static_cast<int>(resident_.size()));
  total_resident_ += bytes - resident_[static_cast<size_t>(pid)];
  resident_[static_cast<size_t>(pid)] = bytes;
}

double MpScheduler::MemoryOvercommit() const {
  if (options_.ram_bytes <= 0) {
    return 0.0;
  }
  const double ratio =
      static_cast<double>(total_resident_) / static_cast<double>(options_.ram_bytes);
  return std::max(0.0, ratio - 1.0);
}

bool MpScheduler::Submit(int pid, SimDuration cpu_time, bool interactive,
                         CompletionFn on_complete) {
  SLIM_CHECK(pid >= 0 && pid < static_cast<int>(in_flight_.size()));
  SLIM_CHECK(cpu_time > 0);
  if (in_flight_[static_cast<size_t>(pid)]) {
    return false;
  }
  in_flight_[static_cast<size_t>(pid)] = true;
  Burst burst;
  burst.pid = pid;
  burst.remaining = cpu_time;
  burst.level = interactive ? 0 : kPriorityLevels - 1;
  burst.on_complete = std::move(on_complete);
  queues_[static_cast<size_t>(burst.level)].push_back(std::move(burst));
  TryDispatch();
  return true;
}

bool MpScheduler::HasBurstInFlight(int pid) const {
  SLIM_CHECK(pid >= 0 && pid < static_cast<int>(in_flight_.size()));
  return in_flight_[static_cast<size_t>(pid)];
}

double MpScheduler::Utilization() const {
  const SimTime now = sim_->now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time_) /
         (static_cast<double>(now) * static_cast<double>(options_.cpus));
}

void MpScheduler::TryDispatch() {
  for (int cpu = 0; cpu < options_.cpus; ++cpu) {
    if (cpu_busy_[static_cast<size_t>(cpu)]) {
      continue;
    }
    // Highest-priority (lowest index) non-empty queue wins; round-robin within a level.
    for (auto& queue : queues_) {
      if (queue.empty()) {
        continue;
      }
      Burst burst = std::move(queue.front());
      queue.pop_front();
      cpu_busy_[static_cast<size_t>(cpu)] = true;
      RunSlice(cpu, std::move(burst));
      break;
    }
  }
}

void MpScheduler::RunSlice(int cpu, Burst burst) {
  const bool bottom = burst.level == kPriorityLevels - 1;
  const SimDuration level_quantum = bottom ? 3 * kQuantum : kQuantum;
  const SimDuration slice = std::min(level_quantum, burst.remaining);
  // Paging stretches wall-clock time without adding useful CPU work.
  const double stretch = 1.0 + kPagingPenalty * MemoryOvercommit();
  const auto wall = static_cast<SimDuration>(static_cast<double>(slice) * stretch);
  sim_->Schedule(wall, [this, cpu, b = std::move(burst), slice]() mutable {
    busy_time_ += slice;
    b.remaining -= slice;
    cpu_busy_[static_cast<size_t>(cpu)] = false;
    if (b.remaining <= 0) {
      in_flight_[static_cast<size_t>(b.pid)] = false;
      if (b.on_complete) {
        // Dispatch before running the callback so a completion that immediately resubmits
        // (the yardstick's next cycle) cannot starve queued work.
        TryDispatch();
        b.on_complete();
        TryDispatch();
        return;
      }
    } else {
      // Used a full quantum without sleeping: demote one level. A freshly-woken burst thus
      // descends one level per quantum: a 30 ms interactive burst touches the bottom level
      // briefly, while a long hog lives there - which is what produces the paper's Figure 9
      // latency knees.
      b.level = std::min(b.level + 1, kPriorityLevels - 1);
      queues_[static_cast<size_t>(b.level)].push_back(std::move(b));
    }
    TryDispatch();
  });
}

}  // namespace slim
