// Tests for the multiprocessor time-sharing scheduler.

#include <gtest/gtest.h>

#include "src/sched/scheduler.h"

namespace slim {
namespace {

TEST(SchedulerTest, SingleBurstRunsToCompletion) {
  Simulator sim;
  MpScheduler sched(&sim, {});
  const int pid = sched.AddProcess(0);
  bool done = false;
  EXPECT_TRUE(sched.Submit(pid, Milliseconds(25), true, [&] { done = true; }));
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), Milliseconds(25));
  EXPECT_EQ(sched.busy_time(), Milliseconds(25));
}

TEST(SchedulerTest, RejectsSecondBurstWhileInFlight) {
  Simulator sim;
  MpScheduler sched(&sim, {});
  const int pid = sched.AddProcess(0);
  EXPECT_TRUE(sched.Submit(pid, Milliseconds(10), true, {}));
  EXPECT_TRUE(sched.HasBurstInFlight(pid));
  EXPECT_FALSE(sched.Submit(pid, Milliseconds(10), true, {}));
  sim.Run();
  EXPECT_FALSE(sched.HasBurstInFlight(pid));
  EXPECT_TRUE(sched.Submit(pid, Milliseconds(10), true, {}));
  sim.Run();
}

TEST(SchedulerTest, TwoProcessesOnOneCpuShareViaQuanta) {
  Simulator sim;
  SchedulerOptions options;
  MpScheduler sched(&sim, options);
  const int a = sched.AddProcess(0);
  const int b = sched.AddProcess(0);
  SimTime a_done = 0;
  SimTime b_done = 0;
  sched.Submit(a, Milliseconds(30), true, [&] { a_done = sim.now(); });
  sched.Submit(b, Milliseconds(30), true, [&] { b_done = sim.now(); });
  sim.Run();
  // Interleaved quanta: both finish near 60 ms, not 30/60 serially.
  EXPECT_EQ(std::max(a_done, b_done), Milliseconds(60));
  EXPECT_GE(std::min(a_done, b_done), Milliseconds(50));
}

TEST(SchedulerTest, TwoCpusRunTwoProcessesInParallel) {
  Simulator sim;
  SchedulerOptions options;
  options.cpus = 2;
  MpScheduler sched(&sim, options);
  const int a = sched.AddProcess(0);
  const int b = sched.AddProcess(0);
  SimTime a_done = 0;
  SimTime b_done = 0;
  sched.Submit(a, Milliseconds(30), true, [&] { a_done = sim.now(); });
  sched.Submit(b, Milliseconds(30), true, [&] { b_done = sim.now(); });
  sim.Run();
  EXPECT_EQ(a_done, Milliseconds(30));
  EXPECT_EQ(b_done, Milliseconds(30));
}

TEST(SchedulerTest, InteractiveBurstDoesNotWaitBehindHogBacklog) {
  // A fresh interactive burst must not wait behind a long background queue: this is the
  // Solaris-TS-like behaviour the paper's oversubscription results depend on. With three
  // 1-second hogs queued, a 30 ms interactive burst pays at most a few head-of-line
  // bottom-level slices (its own last quantum is demoted to the bottom), never the
  // 3-second serial backlog.
  Simulator sim;
  SchedulerOptions options;
  MpScheduler sched(&sim, options);
  for (int i = 0; i < 3; ++i) {
    const int hog = sched.AddProcess(0);
    sched.Submit(hog, Seconds(1), false, {});
  }
  sim.RunUntil(Milliseconds(35));  // hogs are mid-flight
  const int yard = sched.AddProcess(0);
  SimTime done = 0;
  const SimTime submitted = sim.now();
  sched.Submit(yard, Milliseconds(30), true, [&] { done = sim.now(); });
  sim.Run();
  const SimDuration added = done - submitted - Milliseconds(30);
  EXPECT_LT(added, Milliseconds(200));
  EXPECT_GT(added, 0);
}

TEST(SchedulerTest, InteractiveWaitBoundedRegardlessOfHogCount) {
  // The head-of-line penalty for a freshly-woken burst is one bottom-level slice plus its
  // own demoted tail - it must NOT scale with the number of queued hogs.
  auto added_for_hogs = [](int hogs) {
    Simulator sim;
    SchedulerOptions options;
    MpScheduler sched(&sim, options);
    for (int i = 0; i < hogs; ++i) {
      sched.Submit(sched.AddProcess(0), Seconds(2), false, {});
    }
    sim.RunUntil(Milliseconds(35));
    const int pid = sched.AddProcess(0);
    SimTime done = 0;
    const SimTime submitted = sim.now();
    sched.Submit(pid, Milliseconds(10), true, [&] { done = sim.now(); });
    sim.Run();
    return done - submitted - Milliseconds(10);
  };
  // A 10 ms burst stays at the top level: it pays at most the in-service slice.
  const SimDuration few = added_for_hogs(2);
  const SimDuration many = added_for_hogs(12);
  EXPECT_LE(many, few + Milliseconds(31));
  EXPECT_LT(many, Milliseconds(35));
}

TEST(SchedulerTest, MemoryOvercommitStretchesWallTime) {
  Simulator sim;
  SchedulerOptions options;
  options.ram_bytes = 100;
  MpScheduler sched(&sim, options);
  const int pid = sched.AddProcess(150);  // 1.5x RAM => overcommit 0.5 => stretch 3x
  EXPECT_DOUBLE_EQ(sched.MemoryOvercommit(), 0.5);
  SimTime done = 0;
  sched.Submit(pid, Milliseconds(10), true, [&] { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, Milliseconds(30));
  EXPECT_EQ(sched.busy_time(), Milliseconds(10));  // useful work unchanged
}

TEST(SchedulerTest, ResidentBytesUpdateChangesOvercommit) {
  Simulator sim;
  SchedulerOptions options;
  options.ram_bytes = 1000;
  MpScheduler sched(&sim, options);
  const int pid = sched.AddProcess(400);
  EXPECT_EQ(sched.MemoryOvercommit(), 0.0);
  sched.SetResidentBytes(pid, 1600);
  EXPECT_DOUBLE_EQ(sched.MemoryOvercommit(), 0.6);
  EXPECT_EQ(sched.total_resident_bytes(), 1600);
}

TEST(SchedulerTest, UtilizationReflectsBusyFraction) {
  Simulator sim;
  MpScheduler sched(&sim, {});
  const int pid = sched.AddProcess(0);
  sched.Submit(pid, Milliseconds(30), true, {});
  sim.Run();
  sim.RunUntil(Milliseconds(60));
  EXPECT_NEAR(sched.Utilization(), 0.5, 1e-9);
}

TEST(SchedulerTest, ManyProcessesAllComplete) {
  Simulator sim;
  SchedulerOptions options;
  options.cpus = 4;
  MpScheduler sched(&sim, options);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    const int pid = sched.AddProcess(0);
    sched.Submit(pid, Milliseconds(7 + i % 13), i % 2 == 0, [&] { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 64);
  // 4 CPUs: makespan >= total work / 4.
  EXPECT_GE(sim.now() * 4, sched.busy_time());
}

}  // namespace
}  // namespace slim
