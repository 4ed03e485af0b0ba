// Tests for the console actor: decode pipeline timing, queue saturation, bandwidth
// allocation, and the Table 5 cost model.

#include <gtest/gtest.h>

#include "src/console/bandwidth.h"
#include "src/console/console.h"
#include "src/console/cost_model.h"
#include "src/net/transport.h"
#include "src/util/rng.h"

namespace slim {
namespace {

class ConsoleFixture : public ::testing::Test {
 protected:
  ConsoleFixture() : fabric_(&sim_, {}), console_(&sim_, &fabric_, ConsoleOptions{}) {
    server_ = std::make_unique<SlimEndpoint>(&fabric_, fabric_.AddNode());
  }

  Simulator sim_;
  Fabric fabric_;
  Console console_;
  std::unique_ptr<SlimEndpoint> server_;
};

TEST_F(ConsoleFixture, AppliesFillToFramebuffer) {
  server_->Send(console_.node(), 1, FillCommand{Rect{0, 0, 64, 64}, MakePixel(9, 9, 9)});
  sim_.Run();
  EXPECT_EQ(console_.commands_applied(), 1);
  EXPECT_EQ(console_.framebuffer().GetPixel(10, 10), MakePixel(9, 9, 9));
}

TEST_F(ConsoleFixture, ServiceTimeMatchesCostModel) {
  const FillCommand cmd{Rect{0, 0, 100, 100}, kWhite};
  server_->Send(console_.node(), 1, cmd);
  sim_.Run();
  ASSERT_EQ(console_.service_log().size(), 1u);
  const ServiceRecord& rec = console_.service_log()[0];
  const ConsoleCostModel model;
  EXPECT_EQ(rec.completion - rec.start, model.CostOf(DisplayCommand(cmd)));
  EXPECT_EQ(rec.pixels, 100 * 100);
}

TEST_F(ConsoleFixture, QueuedCommandsServiceSequentially) {
  // Two large SETs: the second's decode starts when the first finishes.
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 200, 200};
  cmd.rgb.assign(200 * 200 * 3, 5);
  server_->Send(console_.node(), 1, cmd);
  server_->Send(console_.node(), 1, cmd);
  sim_.Run();
  ASSERT_EQ(console_.service_log().size(), 2u);
  const auto& log = console_.service_log();
  EXPECT_EQ(log[1].start, std::max(log[0].completion, log[1].arrival));
  EXPECT_GT(log[1].start, log[1].arrival);  // it actually queued
}

TEST_F(ConsoleFixture, MalformedCommandRejected) {
  SetCommand bad;
  bad.dst = Rect{0, 0, 10, 10};
  bad.rgb.assign(7, 0);  // wrong payload size
  server_->Send(console_.node(), 1, bad);
  sim_.Run();
  EXPECT_EQ(console_.commands_applied(), 0);
  EXPECT_EQ(console_.commands_rejected(), 1);
}

TEST_F(ConsoleFixture, RespondsToPing) {
  uint64_t pong_payload = 0;
  server_->set_handler([&](const Message& m, NodeId) {
    if (const auto* pong = std::get_if<PongMsg>(&m.body)) {
      pong_payload = pong->payload;
    }
  });
  server_->Send(console_.node(), 1, PingMsg{1234});
  sim_.Run();
  EXPECT_EQ(pong_payload, 1234u);
}

TEST_F(ConsoleFixture, BandwidthRequestGetsGrant) {
  int64_t granted = -1;
  server_->set_handler([&](const Message& m, NodeId) {
    if (const auto* grant = std::get_if<BandwidthGrantMsg>(&m.body)) {
      granted = grant->bits_per_second;
    }
  });
  server_->Send(console_.node(), 1, BandwidthRequestMsg{1, 40'000'000});
  sim_.Run();
  EXPECT_EQ(granted, 40'000'000);
}

TEST_F(ConsoleFixture, InputEventsReachServer) {
  std::vector<MessageType> types;
  server_->set_handler(
      [&](const Message& m, NodeId) { types.push_back(TypeOfMessage(m)); });
  console_.SendKey(server_->node(), 3, 65, true);
  console_.SendMouse(server_->node(), 3, 10, 20, 1, false);
  console_.InsertCard(server_->node(), 0xcafe);
  sim_.Run();
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], MessageType::kKeyEvent);
  EXPECT_EQ(types[1], MessageType::kMouseEvent);
  EXPECT_EQ(types[2], MessageType::kSessionAttach);
}

TEST(ConsoleSaturationTest, OverloadDropsCommands) {
  // Faster-than-decodable stream: the 2 MB command memory fills and the console drops, the
  // saturation behaviour Table 5's methodology relies on.
  Simulator sim;
  FabricOptions fast;
  fast.link.bits_per_second = 1'000'000'000;  // 1 Gbps feed so decode is the bottleneck
  Fabric fabric(&sim, fast);
  ConsoleOptions options;
  options.record_service_log = false;
  Console console(&sim, &fabric, options);
  SlimEndpoint server(&fabric, fabric.AddNode());
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 256, 256};  // ~17.7 ms decode each at 270 ns/pixel
  cmd.rgb.assign(256 * 256 * 3, 1);
  std::function<void(int)> send_next = [&](int i) {
    if (i >= 400) {
      return;
    }
    server.Send(console.node(), 1, cmd);
    sim.Schedule(Milliseconds(2), [&, i] { send_next(i + 1); });
  };
  send_next(0);
  sim.Run();
  EXPECT_GT(console.commands_dropped(), 0);
  // It still made steady progress at its service rate (~17.7 ms per command over ~0.93 s).
  EXPECT_GT(console.commands_applied(), 40);
}

TEST(CostModelTest, MatchesTable5Constants) {
  const ConsoleCostModel model;
  auto cost_minus_dispatch = [&](const DisplayCommand& cmd) {
    return model.CostOf(cmd) - ConsoleCostModel::kDispatchOverhead;
  };
  SetCommand set;
  set.dst = Rect{0, 0, 100, 10};
  set.rgb.assign(100 * 10 * 3, 0);
  EXPECT_EQ(cost_minus_dispatch(set), 5000 + 270 * 1000);
  FillCommand fill{Rect{0, 0, 100, 10}, 0};
  EXPECT_EQ(cost_minus_dispatch(fill), 5000 + 2 * 1000);
  CopyCommand copy{0, 0, Rect{0, 0, 100, 10}};
  EXPECT_EQ(cost_minus_dispatch(copy), 5000 + 10 * 1000);
  BitmapCommand bitmap;
  bitmap.dst = Rect{0, 0, 100, 10};
  bitmap.bits.assign(13 * 10, 0);
  EXPECT_EQ(cost_minus_dispatch(bitmap), 11080 + 22 * 1000);
}

TEST(CostModelTest, CscsDepthsOrderedByCost) {
  const ConsoleCostModel model;
  SimDuration previous = 0;
  for (const CscsDepth depth :
       {CscsDepth::k5, CscsDepth::k6, CscsDepth::k8, CscsDepth::k12, CscsDepth::k16}) {
    CscsCommand cmd;
    cmd.src_w = 100;
    cmd.src_h = 100;
    cmd.dst = Rect{0, 0, 100, 100};
    cmd.depth = depth;
    cmd.payload.assign(CscsPayloadBytes(100, 100, depth), 0);
    const SimDuration cost = model.CostOf(DisplayCommand(cmd));
    EXPECT_GT(cost, previous);
    previous = cost;
  }
}

TEST(CostModelTest, StreamingCscsCheaperThanCold) {
  const ConsoleCostModel model;
  CscsCommand cmd;
  cmd.src_w = 320;
  cmd.src_h = 240;
  cmd.dst = Rect{0, 0, 320, 240};
  cmd.depth = CscsDepth::k8;
  cmd.payload.assign(CscsPayloadBytes(320, 240, CscsDepth::k8), 0);
  EXPECT_LT(model.StreamingCscsCost(cmd), model.CostOf(DisplayCommand(cmd)));
}

TEST(ConsoleStreamingTest, RepeatedVideoGeometryHitsWarmPath) {
  Simulator sim;
  Fabric fabric(&sim, {});
  Console console(&sim, &fabric, ConsoleOptions{});
  SlimEndpoint server(&fabric, fabric.AddNode());
  CscsCommand frame;
  frame.src_w = 64;
  frame.src_h = 48;
  frame.dst = Rect{0, 0, 64, 48};
  frame.depth = CscsDepth::k6;
  frame.payload.assign(CscsPayloadBytes(64, 48, CscsDepth::k6), 0);
  for (int i = 0; i < 5; ++i) {
    server.Send(console.node(), 1, frame);
  }
  sim.Run();
  EXPECT_EQ(console.cscs_stream_hits(), 4);  // first is cold, rest warm
  const auto& log = console.service_log();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_GT(log[0].completion - log[0].start, log[1].completion - log[1].start);
}

TEST(BandwidthAllocatorTest, AllRequestsFitAllGranted) {
  const auto grants = AllocateBandwidth(
      {{1, 10'000'000}, {2, 20'000'000}, {3, 30'000'000}}, 100'000'000);
  ASSERT_EQ(grants.size(), 3u);
  for (const auto& g : grants) {
    int64_t want = static_cast<int64_t>(g.flow_id) * 10'000'000;
    EXPECT_EQ(g.bits_per_second, want);
  }
}

TEST(BandwidthAllocatorTest, AscendingGrantThenFairShare) {
  // Paper Section 7: grant ascending until one does not fit, split the rest fairly.
  const auto grants =
      AllocateBandwidth({{1, 5'000'000}, {2, 60'000'000}, {3, 80'000'000}}, 100'000'000);
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(grants[0].flow_id, 1u);
  EXPECT_EQ(grants[0].bits_per_second, 5'000'000);
  // 95 Mbps left, 60 fits: granted. 80 does not fit in the remaining 35: fair share.
  EXPECT_EQ(grants[1].bits_per_second, 60'000'000);
  EXPECT_EQ(grants[2].bits_per_second, 35'000'000);
}

TEST(BandwidthAllocatorTest, SmallerRequestSatisfiedBeforeFairShare) {
  // Paper semantics: ascending grants take what fits; only the remainder is split.
  const auto grants =
      AllocateBandwidth({{1, 70'000'000}, {2, 90'000'000}}, 100'000'000);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].bits_per_second, 70'000'000);
  EXPECT_EQ(grants[1].bits_per_second, 30'000'000);
}

TEST(BandwidthAllocatorTest, NothingFitsSplitsEverythingFairly) {
  const auto grants = AllocateBandwidth(
      {{1, 120'000'000}, {2, 150'000'000}, {3, 200'000'000}}, 90'000'000);
  ASSERT_EQ(grants.size(), 3u);
  for (const auto& g : grants) {
    EXPECT_EQ(g.bits_per_second, 30'000'000);
  }
}

TEST(BandwidthAllocatorTest, NeverOverAllocatesProperty) {
  Rng rng(31337);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBelow(10));
    std::vector<BandwidthRequest> requests;
    for (int i = 0; i < n; ++i) {
      requests.push_back({static_cast<uint64_t>(i),
                          static_cast<int64_t>(rng.NextBelow(120'000'000))});
    }
    const int64_t total = 1'000'000 + static_cast<int64_t>(rng.NextBelow(100'000'000));
    const auto grants = AllocateBandwidth(requests, total);
    ASSERT_EQ(grants.size(), requests.size());
    int64_t sum = 0;
    for (size_t i = 0; i < grants.size(); ++i) {
      sum += grants[i].bits_per_second;
      EXPECT_GE(grants[i].bits_per_second, 0);
    }
    EXPECT_LE(sum, total);
    // No flow is granted more than it asked for.
    std::map<uint64_t, int64_t> asked;
    for (const auto& r : requests) {
      asked[r.flow_id] = r.bits_per_second;
    }
    for (const auto& g : grants) {
      EXPECT_LE(g.bits_per_second, std::max<int64_t>(asked[g.flow_id], 0));
    }
  }
}

TEST(BandwidthAllocatorTest, NonPositiveRequestsGetExplicitZeroGrants) {
  const auto grants = AllocateBandwidth({{1, 0}, {2, -5'000'000}, {3, 50'000'000}},
                                        40'000'000);
  ASSERT_EQ(grants.size(), 3u);
  std::map<uint64_t, int64_t> by_flow;
  for (const auto& g : grants) {
    by_flow[g.flow_id] = g.bits_per_second;
  }
  // Rejected flows appear explicitly (a zero grant, not a missing row) and take no part
  // in the fair-share split: flow 3 alone gets the whole link.
  EXPECT_EQ(by_flow.at(1), 0);
  EXPECT_EQ(by_flow.at(2), 0);
  EXPECT_EQ(by_flow.at(3), 40'000'000);
}

TEST(BandwidthAllocatorTest, FairShareResidueHandedOutExactly) {
  // 100 bps over three equal over-askers: the integer fair share is 33 with residue 1,
  // which the old divide-and-forget code stranded. The residue goes to the first flow in
  // the deterministic ascending order, making the total bit-exact.
  const auto grants = AllocateBandwidth({{1, 200}, {2, 200}, {3, 200}}, 100);
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(grants[0].bits_per_second + grants[1].bits_per_second +
                grants[2].bits_per_second,
            100);
  EXPECT_EQ(grants[0].bits_per_second, 34);
  EXPECT_EQ(grants[1].bits_per_second, 33);
  EXPECT_EQ(grants[2].bits_per_second, 33);
}

TEST(BandwidthAllocatorTest, ContendedTotalIsExactProperty) {
  // Satellite property: never over-grant any flow, and the granted total equals
  // min(total, sum of positive requests) exactly — no residue stranded, none invented.
  Rng rng(0xbadc0ffe);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBelow(12));
    std::vector<BandwidthRequest> requests;
    int64_t positive_sum = 0;
    for (int i = 0; i < n; ++i) {
      // Mix magnitudes (tiny to huge) and sprinkle non-positive requests in.
      int64_t bps = static_cast<int64_t>(rng.NextBelow(1'000'000'000));
      if (rng.NextBelow(8) == 0) {
        bps = -bps;
      }
      positive_sum += std::max<int64_t>(bps, 0);
      requests.push_back({static_cast<uint64_t>(i), bps});
    }
    const int64_t total = 1 + static_cast<int64_t>(rng.NextBelow(2'000'000'000));
    const auto grants = AllocateBandwidth(requests, total);
    ASSERT_EQ(grants.size(), requests.size());
    std::map<uint64_t, int64_t> asked;
    for (const auto& r : requests) {
      asked[r.flow_id] = r.bits_per_second;
    }
    int64_t sum = 0;
    for (const auto& g : grants) {
      EXPECT_GE(g.bits_per_second, 0);
      EXPECT_LE(g.bits_per_second, std::max<int64_t>(asked.at(g.flow_id), 0));
      sum += g.bits_per_second;
    }
    EXPECT_EQ(sum, std::min(total, positive_sum))
        << "trial " << trial << ": contended split must be bit-exact";
  }
}

TEST(BandwidthAllocatorTest, RemoveReturnsFreshGrantSet) {
  BandwidthAllocator alloc(100'000'000);
  alloc.Request(1, 80'000'000);
  alloc.Request(2, 80'000'000);
  EXPECT_EQ(alloc.GrantFor(2), 20'000'000);
  // Remove surfaces the recomputed survivors immediately: no stale-grant window where the
  // freed 80 Mbps exists but nobody was told.
  const auto fresh = alloc.Remove(1);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].flow_id, 2u);
  EXPECT_EQ(fresh[0].bits_per_second, 80'000'000);
  EXPECT_EQ(alloc.flow_count(), 1u);
  // A non-positive request is an explicit withdrawal with the same contract.
  alloc.Request(3, 60'000'000);
  const auto after = alloc.Request(2, 0);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].flow_id, 3u);
  EXPECT_EQ(after[0].bits_per_second, 60'000'000);
  EXPECT_EQ(alloc.GrantFor(2), 0);
}

TEST_F(ConsoleFixture, GrantRevisionsReachEveryMovedFlow) {
  std::map<uint64_t, std::vector<int64_t>> heard;  // flow -> grant history
  server_->set_handler([&](const Message& m, NodeId) {
    if (const auto* g = std::get_if<BandwidthGrantMsg>(&m.body)) {
      heard[g->flow_id].push_back(g->bits_per_second);
      EXPECT_EQ(g->total_bps, 100'000'000);  // the console advertises its whole link
    }
  });
  server_->Send(console_.node(), 1, BandwidthRequestMsg{1, 80'000'000});
  sim_.Run();
  server_->Send(console_.node(), 1, BandwidthRequestMsg{2, 80'000'000});
  sim_.Run();
  // Flow 1's share did not move when flow 2 arrived, so it hears nothing new (no
  // duplicate grant spam); flow 2 gets the remainder.
  EXPECT_EQ(heard[1], (std::vector<int64_t>{80'000'000}));
  EXPECT_EQ(heard[2], (std::vector<int64_t>{20'000'000}));
  // Withdrawing flow 1 frees its share, and the revision is pushed to flow 2 unasked.
  server_->Send(console_.node(), 1, BandwidthRequestMsg{1, 0});
  sim_.Run();
  EXPECT_EQ(heard[2], (std::vector<int64_t>{20'000'000, 80'000'000}));
  EXPECT_EQ(console_.grants_sent(), 3);
}

TEST_F(ConsoleFixture, AppliedReleaseReclaimsTheSessionsFlows) {
  auto other = std::make_unique<SlimEndpoint>(&fabric_, fabric_.AddNode());
  std::vector<int64_t> other_grants;
  other->set_handler([&](const Message& m, NodeId) {
    if (const auto* g = std::get_if<BandwidthGrantMsg>(&m.body)) {
      other_grants.push_back(g->bits_per_second);
    }
  });
  server_->Send(console_.node(), 1, BandwidthRequestMsg{1, 80'000'000});
  sim_.Run();
  other->Send(console_.node(), 2, BandwidthRequestMsg{11, 80'000'000});
  sim_.Run();
  ASSERT_EQ(other_grants, (std::vector<int64_t>{20'000'000}));
  // The first server's session leaves this console: its flows die with the release and
  // the freed bandwidth is rebroadcast to the surviving flow immediately.
  server_->Send(console_.node(), 1, SessionReleaseMsg{ReleaseReason::kHotdesk});
  sim_.Run();
  EXPECT_GE(console_.releases_applied(), 1);
  EXPECT_EQ(other_grants, (std::vector<int64_t>{20'000'000, 80'000'000}));
  EXPECT_EQ(console_.allocator().flow_count(), 1u);
}

TEST(BandwidthAllocatorTest, StatefulTrackerUpdatesGrants) {
  BandwidthAllocator alloc(100'000'000);
  alloc.Request(1, 80'000'000);
  EXPECT_EQ(alloc.GrantFor(1), 80'000'000);
  alloc.Request(2, 80'000'000);
  // Equal requests tie-break by flow id: flow 1 fits, flow 2 gets the remainder.
  EXPECT_EQ(alloc.GrantFor(1), 80'000'000);
  EXPECT_EQ(alloc.GrantFor(2), 20'000'000);
  alloc.Remove(1);
  alloc.Request(2, 80'000'000);
  EXPECT_EQ(alloc.GrantFor(2), 80'000'000);
}

}  // namespace
}  // namespace slim
