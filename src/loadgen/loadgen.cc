#include "src/loadgen/loadgen.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace slim {

LoadGeneratorProcess::LoadGeneratorProcess(Simulator* sim, MpScheduler* sched,
                                           ResourceProfile profile, Rng rng)
    : sim_(sim), sched_(sched), profile_(std::move(profile)), rng_(rng) {
  SLIM_CHECK(sim != nullptr && sched != nullptr);
}

void LoadGeneratorProcess::Start() {
  pid_ = sched_->AddProcess(0);
  BeginInterval(0);
}

void LoadGeneratorProcess::BeginInterval(size_t index) {
  if (index >= profile_.intervals.size()) {
    return;
  }
  interval_index_ = index;
  const ResourceInterval& interval = profile_.intervals[index];
  // Demand the saturated system failed to absorb is dropped at the boundary.
  cpu_discarded_ += std::max<SimDuration>(interval_budget_, 0);
  interval_budget_ = static_cast<SimDuration>(interval.cpu_fraction *
                                              static_cast<double>(profile_.interval));
  interval_end_ = sim_->now() + profile_.interval;
  sched_->SetResidentBytes(pid_, interval.resident_bytes);
  sim_->ScheduleAt(interval_end_, [this, index] { BeginInterval(index + 1); });
  if (!sched_->HasBurstInFlight(pid_)) {
    PumpBurst();
  }
}

void LoadGeneratorProcess::PumpBurst() {
  if (interval_budget_ <= 0 || sim_->now() >= interval_end_) {
    idle_since_sleep_ = true;
    return;  // Wait for the next interval to replenish the budget.
  }
  const SimDuration burst = std::min(profile_.event_burst, interval_budget_);
  const bool accepted = sched_->Submit(pid_, burst, /*interactive=*/true, [this, burst] {
    cpu_consumed_ += burst;
    interval_budget_ -= burst;
    // Sleep long enough to spread the remaining budget evenly over the rest of the
    // interval (with exponential jitter): the process consumes its recorded demand at the
    // recorded pace instead of slamming it in one backlogged run.
    const SimDuration remaining_time = std::max<SimDuration>(interval_end_ - sim_->now(), 0);
    double nap_ms = 5.0;
    if (interval_budget_ > 0 && remaining_time > 0) {
      const double cycles =
          static_cast<double>(interval_budget_) /
          static_cast<double>(std::min(profile_.event_burst, interval_budget_));
      nap_ms =
          std::max(5.0, ToMillis(remaining_time) / cycles - ToMillis(profile_.event_burst));
    }
    idle_since_sleep_ = true;
    const auto nap = static_cast<SimDuration>(rng_.NextExponential(nap_ms) * kMillisecond);
    sim_->Schedule(nap, [this] {
      if (!sched_->HasBurstInFlight(pid_)) {
        PumpBurst();
      }
    });
  });
  SLIM_CHECK(accepted);
}

CpuYardstick::CpuYardstick(Simulator* sim, MpScheduler* sched) : sim_(sim), sched_(sched) {
  SLIM_CHECK(sim != nullptr && sched != nullptr);
}

void CpuYardstick::Start() {
  pid_ = sched_->AddProcess(4LL * 1024 * 1024);
  RunCycle();
}

void CpuYardstick::RunCycle() {
  const SimTime submitted = sim_->now();
  const bool accepted = sched_->Submit(pid_, kBurst, /*interactive=*/true, [this, submitted] {
    const SimDuration wall = sim_->now() - submitted;
    samples_.push_back(ToMillis(wall - kBurst));
    sim_->Schedule(kThink, [this] { RunCycle(); });
  });
  SLIM_CHECK(accepted);
}

double CpuYardstick::AverageAddedLatencyMs() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const double s : samples_) {
    total += s;
  }
  return total / static_cast<double>(samples_.size());
}

double CpuSharingAddedLatencyMs(AppKind kind, int users, int cpus, SimDuration horizon,
                                uint64_t seed) {
  Simulator sim;
  SchedulerOptions options;  // its 4 GB of RAM is the paper's E4500 configuration
  options.cpus = cpus;
  MpScheduler sched(&sim, options);
  Rng rng(seed);
  std::vector<std::unique_ptr<LoadGeneratorProcess>> procs;
  procs.reserve(static_cast<size_t>(users));
  for (int i = 0; i < users; ++i) {
    procs.push_back(std::make_unique<LoadGeneratorProcess>(
        &sim, &sched, SynthesizeProfile(kind, horizon, rng.Split()), rng.Split()));
    procs.back()->Start();
  }
  CpuYardstick yardstick(&sim, &sched);
  yardstick.Start();
  sim.RunUntil(horizon);
  return yardstick.AverageAddedLatencyMs();
}

TrafficGenerator::TrafficGenerator(Simulator* sim, Fabric* fabric, NodeId src, NodeId sink,
                                   ResourceProfile profile, Rng rng)
    : sim_(sim), fabric_(fabric), src_(src), sink_(sink), profile_(std::move(profile)),
      rng_(rng) {
  SLIM_CHECK(sim != nullptr && fabric != nullptr);
}

void TrafficGenerator::Start() { BeginInterval(0); }

void TrafficGenerator::BeginInterval(size_t index) {
  if (index >= profile_.intervals.size()) {
    return;
  }
  interval_index_ = index;
  interval_bytes_left_ = profile_.intervals[index].net_bytes;
  interval_end_ = sim_->now() + profile_.interval;
  sim_->ScheduleAt(interval_end_, [this, index] { BeginInterval(index + 1); });
  SendBurst();
}

void TrafficGenerator::SendBurst() {
  if (interval_bytes_left_ <= 0 || sim_->now() >= interval_end_) {
    return;
  }
  // Display-update-sized bursts: mostly a few KB, occasionally tens of KB (Figure 5 shape).
  const auto burst = std::min<int64_t>(
      interval_bytes_left_,
      static_cast<int64_t>(std::clamp(rng_.NextLogNormal(7.6, 1.2), 64.0, 120e3)));
  interval_bytes_left_ -= burst;
  bytes_offered_ += burst;
  // Fragment to MTU-sized datagrams.
  int64_t remaining = burst;
  while (remaining > 0) {
    const int64_t chunk = std::min<int64_t>(remaining, kMtuBytes);
    Datagram dgram;
    dgram.src = src_;
    dgram.dst = sink_;
    dgram.payload.assign(static_cast<size_t>(chunk), 0);
    fabric_->Send(std::move(dgram));
    remaining -= chunk;
  }
  // Pace so the interval's bytes spread across the interval with jitter.
  const SimDuration remaining_time = interval_end_ - sim_->now();
  const int64_t remaining_bytes = std::max<int64_t>(interval_bytes_left_, 1);
  const double mean_gap =
      static_cast<double>(remaining_time) * static_cast<double>(burst) /
      static_cast<double>(remaining_bytes + burst);
  const auto gap = static_cast<SimDuration>(
      std::max(1.0, rng_.NextExponential(std::max(mean_gap, 1.0))));
  sim_->Schedule(gap, [this] { SendBurst(); });
}

NetYardstick::NetYardstick(Simulator* sim, Fabric* fabric, NodeId self, NodeId server)
    : sim_(sim), fabric_(fabric), self_(self), server_(server) {
  SLIM_CHECK(sim != nullptr && fabric != nullptr);
  fabric_->SetReceiver(self_, [this](Datagram dgram) {
    if (dgram.payload.size() != static_cast<size_t>(kResponseBytes) ||
        dgram.payload.size() < 8) {
      return;
    }
    uint64_t id = 0;
    for (int i = 0; i < 8; ++i) {
      id |= static_cast<uint64_t>(dgram.payload[static_cast<size_t>(i)]) << (8 * i);
    }
    if (id != awaiting_probe_id_) {
      return;  // Stale response after a timeout.
    }
    awaiting_probe_id_ = 0;
    sim_->Cancel(timeout_event_);
    samples_.push_back(ToMillis(sim_->now() - probe_sent_at_));
    sim_->Schedule(kThink, [this] { SendProbe(); });
  });
}

void NetYardstick::Start() { SendProbe(); }

void NetYardstick::SendProbe() {
  const uint64_t id = next_probe_id_++;
  awaiting_probe_id_ = id;
  probe_sent_at_ = sim_->now();
  Datagram dgram;
  dgram.src = self_;
  dgram.dst = server_;
  dgram.payload.assign(static_cast<size_t>(kRequestBytes), 0);
  for (int i = 0; i < 8; ++i) {
    dgram.payload[static_cast<size_t>(i)] = static_cast<uint8_t>(id >> (8 * i));
  }
  fabric_->Send(std::move(dgram));
  timeout_event_ = sim_->Schedule(kTimeout, [this] {
    ++timeouts_;
    awaiting_probe_id_ = 0;
    SendProbe();
  });
}

double NetYardstick::AverageRttMs() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const double s : samples_) {
    total += s;
  }
  return total / static_cast<double>(samples_.size());
}

void InstallEchoResponder(Fabric* fabric, NodeId node) {
  SLIM_CHECK(fabric != nullptr);
  Simulator* sim = fabric->simulator();
  (void)sim;
  fabric->SetReceiver(node, [fabric, node](Datagram dgram) {
    if (dgram.payload.size() != static_cast<size_t>(NetYardstick::kRequestBytes)) {
      return;  // Background traffic sinks here.
    }
    Datagram reply;
    reply.src = node;
    reply.dst = dgram.src;
    reply.payload.assign(static_cast<size_t>(NetYardstick::kResponseBytes), 0);
    std::copy_n(dgram.payload.begin(), 8, reply.payload.begin());
    fabric->Send(std::move(reply));
  });
}

}  // namespace slim
