// Tests for the simulated fabric (links, switch, queues) and the SLIM transport
// (fragmentation, reassembly, NACK replay, duplicate suppression).

#include <gtest/gtest.h>

#include <string>

#include "src/net/fabric.h"
#include "src/net/transport.h"
#include "src/protocol/wire.h"
#include "src/sim/simulator.h"

namespace slim {
namespace {

// Hand-frames one fragment datagram exactly as SlimEndpoint would put it on the wire
// (magic, checksum, index, count, msg_seq, payload); lets tests inject crafted fragments.
std::vector<uint8_t> FrameFragment(uint16_t index, uint16_t count, uint64_t msg_seq,
                                   std::span<const uint8_t> payload) {
  ByteWriter w;
  w.U8(0x5f);  // fragment magic
  w.U32(0);    // checksum placeholder
  w.U16(index);
  w.U16(count);
  w.U64(msg_seq);
  w.Bytes(payload);
  std::vector<uint8_t> bytes = w.Take();
  const uint32_t sum = FrameChecksum32(bytes[0], std::span<const uint8_t>(bytes).subspan(5));
  for (int i = 0; i < 4; ++i) {
    bytes[1 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
  return bytes;
}

TEST(FabricTest, DeliversDatagramBetweenNodes) {
  Simulator sim;
  Fabric fabric(&sim, {});
  const NodeId a = fabric.AddNode();
  const NodeId b = fabric.AddNode();
  std::vector<uint8_t> received;
  fabric.SetReceiver(b, [&](Datagram d) { received = d.payload; });
  fabric.Send(Datagram{a, b, {1, 2, 3}});
  sim.Run();
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(FabricTest, LatencyIsSerializationPlusPropagationTwice) {
  // Store-and-forward: host link then switch egress link, each 5 us propagation.
  Simulator sim;
  FabricOptions options;
  options.link.bits_per_second = 100'000'000;
  options.link.propagation = Microseconds(5);
  Fabric fabric(&sim, options);
  const NodeId a = fabric.AddNode();
  const NodeId b = fabric.AddNode();
  SimTime arrival = -1;
  fabric.SetReceiver(b, [&](Datagram) { arrival = sim.now(); });
  const int64_t payload = 1000;
  fabric.Send(Datagram{a, b, std::vector<uint8_t>(payload)});
  sim.Run();
  const SimDuration tx = TransmissionDelay(payload + kDatagramOverheadBytes, 100'000'000);
  EXPECT_EQ(arrival, 2 * tx + 2 * Microseconds(5));
}

TEST(FabricTest, UnknownDestinationCountsAsMisrouted) {
  Simulator sim;
  Fabric fabric(&sim, {});
  const NodeId a = fabric.AddNode();
  fabric.Send(Datagram{a, 99, {1}});
  sim.Run();
  EXPECT_EQ(fabric.datagrams_misrouted(), 1);
}

TEST(FabricTest, SlowLinkDelaysDelivery) {
  Simulator sim;
  Fabric fabric(&sim, {});
  const NodeId fast = fabric.AddNode();
  LinkOptions slow;
  slow.bits_per_second = 1'000'000;  // 1 Mbps home link
  const NodeId home = fabric.AddNode(slow);
  SimTime arrival = -1;
  fabric.SetReceiver(home, [&](Datagram) { arrival = sim.now(); });
  fabric.Send(Datagram{fast, home, std::vector<uint8_t>(1454)});
  sim.Run();
  // The 1 Mbps egress dominates: 1500 B * 8 / 1 Mbps = 12 ms.
  EXPECT_GT(arrival, Milliseconds(12));
  EXPECT_LT(arrival, Milliseconds(13));
}

TEST(FabricTest, QueueOverflowDropsAtSwitchEgress) {
  // Two senders converging on one egress port offer 2x its line rate; the shallow egress
  // queue must overflow while the host uplinks (paced at line rate) never drop.
  Simulator sim;
  FabricOptions options;
  options.link.queue_limit_bytes = 10'000;
  Fabric fabric(&sim, options);
  const NodeId a1 = fabric.AddNode();
  const NodeId a2 = fabric.AddNode();
  const NodeId b = fabric.AddNode();
  int delivered = 0;
  fabric.SetReceiver(b, [&](Datagram) { ++delivered; });
  for (int i = 0; i < 100; ++i) {
    fabric.Send(Datagram{a1, b, std::vector<uint8_t>(1400)});
    fabric.Send(Datagram{a2, b, std::vector<uint8_t>(1400)});
  }
  sim.Run();
  EXPECT_LT(delivered, 200);
  EXPECT_EQ(fabric.downlink_stats(b).datagrams_dropped_queue, 200 - delivered);
  EXPECT_EQ(fabric.uplink_stats(a1).datagrams_dropped_queue, 0);
}

TEST(FabricTest, HostUplinkAbsorbsBursts) {
  // The same burst that overflows a switch egress queue survives the host-side uplink.
  Simulator sim;
  FabricOptions options;
  options.link.queue_limit_bytes = 10'000;
  options.host_queue_bytes = 8 * 1024 * 1024;
  Fabric fabric(&sim, options);
  const NodeId a = fabric.AddNode();
  (void)fabric.AddNode();
  for (int i = 0; i < 100; ++i) {
    fabric.Send(Datagram{a, 1, std::vector<uint8_t>(1400)});
  }
  sim.Run();
  EXPECT_EQ(fabric.uplink_stats(a).datagrams_dropped_queue, 0);
}

TEST(FabricTest, LossInjectionDropsApproximatelyTheConfiguredFraction) {
  Simulator sim;
  FabricOptions options;
  options.link.loss_probability = 0.2;
  Fabric fabric(&sim, options);
  const NodeId a = fabric.AddNode();
  const NodeId b = fabric.AddNode();
  int delivered = 0;
  fabric.SetReceiver(b, [&](Datagram) { ++delivered; });
  std::function<void(int)> send_next = [&](int i) {
    if (i >= 2000) {
      return;
    }
    fabric.Send(Datagram{a, b, {0}});
    sim.Schedule(Microseconds(50), [&, i] { send_next(i + 1); });
  };
  send_next(0);
  sim.Run();
  // Two lossy hops: survival probability 0.64.
  EXPECT_NEAR(delivered / 2000.0, 0.64, 0.05);
}

TEST(TransportTest, SmallMessageRoundTrip) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  std::vector<Message> received;
  b.set_handler([&](const Message& m, NodeId) { received.push_back(m); });
  a.Send(b.node(), 5, KeyEventMsg{42, true});
  sim.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].session_id, 5u);
  EXPECT_EQ(std::get<KeyEventMsg>(received[0].body).keycode, 42u);
}

TEST(TransportTest, LargeMessageFragmentsAndReassembles) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 200, 100};
  cmd.rgb.assign(200 * 100 * 3, 0xab);
  std::vector<Message> received;
  b.set_handler([&](const Message& m, NodeId) { received.push_back(m); });
  a.Send(b.node(), 1, cmd);
  sim.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(std::get<SetCommand>(received[0].body), cmd);
  EXPECT_GT(a.stats().fragments_sent, 40);  // 60 KB at ~1.5 KB MTU
}

TEST(TransportTest, SequenceNumbersIncreasePerPeer) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  EXPECT_EQ(a.Send(b.node(), 1, PingMsg{1}), 1u);
  EXPECT_EQ(a.Send(b.node(), 1, PingMsg{2}), 2u);
  EXPECT_EQ(a.Send(b.node(), 1, PingMsg{3}), 3u);
}

TEST(TransportTest, GapTriggersNackAndReplayRecovers) {
  Simulator sim;
  FabricOptions options;
  options.link.loss_probability = 0.15;
  Fabric fabric(&sim, options);
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  // Paced sends so each loss creates a detectable gap before the next arrival.
  std::function<void(int)> send_next = [&](int i) {
    if (i >= 300) {
      return;
    }
    a.Send(b.node(), 1, PingMsg{static_cast<uint64_t>(i)});
    sim.Schedule(Milliseconds(2), [&, i] { send_next(i + 1); });
  };
  send_next(0);
  sim.Run();
  EXPECT_GT(b.stats().nacks_sent, 0);
  EXPECT_GT(a.stats().replays_sent, 0);
  // Replay recovers most of the ~28% two-hop loss. Recovery is driven by later arrivals,
  // so losses near the end of the stream (and lost replays of lost NACKs) can stay lost;
  // ranges whose replays keep getting lost also retry on a widening back-off gate, which
  // trades some tail recovery for not hammering the return path.
  EXPECT_GT(received, 240);
}

TEST(TransportTest, DuplicateDeliveryIsSuppressed) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  a.Send(b.node(), 1, PingMsg{7});
  sim.Run();
  // Force a replay of everything: b NACKs the already-received message.
  b.Send(a.node(), 1, NackMsg{1, 1});
  sim.Run();
  EXPECT_EQ(a.stats().replays_sent, 1);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(b.stats().duplicate_messages, 1);
}

TEST(TransportTest, ReorderingToleratedByReassembly) {
  Simulator sim;
  FabricOptions options;
  options.link.reorder_jitter = Microseconds(400);
  Fabric fabric(&sim, options);
  SlimEndpoint a(&fabric, fabric.AddNode());
  EndpointOptions no_nack;
  no_nack.enable_nack = false;
  SlimEndpoint b(&fabric, fabric.AddNode(), no_nack);
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 100, 100};
  cmd.rgb.assign(100 * 100 * 3, 0x7e);
  int got = 0;
  b.set_handler([&](const Message& m, NodeId) {
    if (std::get<SetCommand>(m.body) == cmd) {
      ++got;
    }
  });
  for (int i = 0; i < 5; ++i) {
    a.Send(b.node(), 1, cmd);
  }
  sim.Run();
  EXPECT_EQ(got, 5);
}

TEST(TransportBatchingTest, SmallMessagesCoalesceIntoOneDatagram) {
  Simulator sim;
  Fabric fabric(&sim, {});
  EndpointOptions batching;
  batching.enable_batching = true;
  SlimEndpoint a(&fabric, fabric.AddNode(), batching);
  SlimEndpoint b(&fabric, fabric.AddNode());
  std::vector<uint64_t> seqs;
  b.set_handler([&](const Message& m, NodeId) { seqs.push_back(m.seq); });
  for (int i = 0; i < 10; ++i) {
    a.Send(b.node(), 3, FillCommand{Rect{i, 0, 5, 5}, kWhite});
  }
  sim.Run();
  ASSERT_EQ(seqs.size(), 10u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i + 1);  // in order, nothing lost
  }
  // All ten fills shared one datagram instead of ten.
  EXPECT_EQ(a.stats().batches_sent, 1);
  EXPECT_EQ(a.stats().fragments_sent, 1);
  EXPECT_EQ(a.stats().messages_batched, 10);
}

TEST(TransportBatchingTest, LargeMessageFlushesPendingBatchFirst) {
  // Ordering property: a held FILL must arrive before a later big SET that bypasses the
  // batch, or overlapping display commands would apply out of order.
  Simulator sim;
  Fabric fabric(&sim, {});
  EndpointOptions batching;
  batching.enable_batching = true;
  SlimEndpoint a(&fabric, fabric.AddNode(), batching);
  SlimEndpoint b(&fabric, fabric.AddNode());
  std::vector<MessageType> order;
  b.set_handler([&](const Message& m, NodeId) { order.push_back(TypeOfMessage(m)); });
  a.Send(b.node(), 1, FillCommand{Rect{0, 0, 64, 64}, kWhite});
  SetCommand big;
  big.dst = Rect{0, 0, 64, 64};
  big.rgb.assign(64 * 64 * 3, 1);
  a.Send(b.node(), 1, big);
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], MessageType::kFill);
  EXPECT_EQ(order[1], MessageType::kSet);
}

TEST(TransportBatchingTest, BatchFlushesOnDelayWhenQuiet) {
  Simulator sim;
  Fabric fabric(&sim, {});
  EndpointOptions batching;
  batching.enable_batching = true;
  batching.batch_delay = Milliseconds(5);
  SlimEndpoint a(&fabric, fabric.AddNode(), batching);
  SlimEndpoint b(&fabric, fabric.AddNode());
  SimTime delivered_at = -1;
  b.set_handler([&](const Message&, NodeId) { delivered_at = sim.now(); });
  a.Send(b.node(), 1, KeyEventMsg{65, true});
  sim.Run();
  EXPECT_GE(delivered_at, Milliseconds(5));  // held for the batch window
  EXPECT_LT(delivered_at, Milliseconds(6));
}

TEST(TransportBatchingTest, SavesFramingBytesForTypingTraffic) {
  // The Section 5.4 claim: batching + header compression dramatically shrinks the framing
  // overhead of small-command traffic (typing echoes on a modem link).
  auto wire_bytes_for = [](bool batching_enabled) {
    Simulator sim;
    Fabric fabric(&sim, {});
    EndpointOptions options;
    options.enable_batching = batching_enabled;
    SlimEndpoint a(&fabric, fabric.AddNode(), options);
    SlimEndpoint b(&fabric, fabric.AddNode());
    b.set_handler([](const Message&, NodeId) {});
    for (int burst = 0; burst < 20; ++burst) {
      for (int i = 0; i < 5; ++i) {
        BitmapCommand glyph;
        glyph.dst = Rect{i * 8, 0, 8, 13};
        glyph.bits.assign(13, 0x3c);
        a.Send(b.node(), 1, glyph);
      }
      sim.Run();
    }
    return fabric.uplink_stats(a.node()).bytes_sent;
  };
  const int64_t plain = wire_bytes_for(false);
  const int64_t batched = wire_bytes_for(true);
  // 5 glyphs per burst: 5 x 116 framed bytes plain vs one 293-byte batch datagram (~1.98x).
  EXPECT_LT(batched * 19, plain * 10) << "batching should nearly halve small-command framing";
}

TEST(TransportBatchingTest, BatchedTrafficRecoversFromLossViaNack) {
  Simulator sim;
  FabricOptions lossy;
  lossy.link.loss_probability = 0.1;
  Fabric fabric(&sim, lossy);
  EndpointOptions batching;
  batching.enable_batching = true;
  SlimEndpoint a(&fabric, fabric.AddNode(), batching);
  SlimEndpoint b(&fabric, fabric.AddNode());
  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  std::function<void(int)> send_next = [&](int i) {
    if (i >= 200) {
      return;
    }
    a.Send(b.node(), 1, PingMsg{static_cast<uint64_t>(i)});
    sim.Schedule(Milliseconds(8), [&, i] { send_next(i + 1); });
  };
  send_next(0);
  sim.Run();
  EXPECT_GT(received, 180);
  EXPECT_GT(a.stats().replays_sent, 0);
}

TEST(TransportTest, CorruptDatagramIgnored) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  // Unknown magic: never parsed, counted as corrupt at the framing gate.
  fabric.Send(Datagram{a.node(), b.node(), {0xde, 0xad, 0xbe, 0xef}});
  sim.Run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(b.stats().datagrams_corrupted, 1);
  EXPECT_EQ(b.stats().reassembly_failures, 0);
}

TEST(TransportTest, ChecksumRejectsFlippedAndTruncatedBytes) {
  // Capture a genuine fragment datagram, then replay mutated variants of it; every
  // mutation must be caught by the framing checksum and counted, never delivered.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  const NodeId tap = fabric.AddNode();
  std::vector<uint8_t> genuine;
  fabric.SetReceiver(tap, [&](Datagram d) { genuine = d.payload; });
  a.Send(tap, 1, KeyEventMsg{7, true});
  sim.Run();
  ASSERT_FALSE(genuine.empty());

  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  for (size_t flip = 0; flip < genuine.size(); ++flip) {
    std::vector<uint8_t> bent = genuine;
    bent[flip] ^= 0x40;
    fabric.Send(Datagram{a.node(), b.node(), std::move(bent)});
  }
  std::vector<uint8_t> chopped(genuine.begin(), genuine.end() - 3);
  fabric.Send(Datagram{a.node(), b.node(), std::move(chopped)});
  // One bit turns the fragment magic 0x5f into the batch magic 0x5e: the checksum covers
  // the magic, so this is corruption too, not a batch that fails to parse.
  std::vector<uint8_t> as_batch = genuine;
  as_batch[0] ^= 0x01;
  ASSERT_EQ(as_batch[0], 0x5e);
  fabric.Send(Datagram{a.node(), b.node(), std::move(as_batch)});
  sim.Run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(b.stats().datagrams_corrupted, static_cast<int64_t>(genuine.size()) + 2);
  EXPECT_EQ(b.stats().reassembly_failures, 0);

  // The unmutated original still parses (same seq namespace, fresh endpoint state).
  fabric.Send(Datagram{a.node(), b.node(), genuine});
  sim.Run();
  EXPECT_EQ(received, 1);
}

// True when `dgram`'s stamped checksum matches its magic and covered bytes, the test the
// framing gate applies.
bool ChecksumMatches(std::span<const uint8_t> dgram) {
  if (dgram.size() < 5) {
    return false;
  }
  uint32_t stamped = 0;
  for (int i = 0; i < 4; ++i) {
    stamped |= static_cast<uint32_t>(dgram[1 + i]) << (8 * i);
  }
  return FrameChecksum32(dgram[0], dgram.subspan(5)) == stamped;
}

TEST(TransportTest, ChecksumCatchesEveryByteErrorAndTruncationOfRealDatagrams) {
  // Three real datagrams: a one-fragment key event, a full-MTU checkpoint-chunk fragment
  // and a batch. Every XOR value at every offset and every truncation must fail the
  // checksum; a sample of them must also land in datagrams_corrupted at a live endpoint.
  Simulator sim;
  Fabric fabric(&sim, {});
  EndpointOptions batching;
  batching.enable_batching = true;
  SlimEndpoint plain(&fabric, fabric.AddNode());
  SlimEndpoint batcher(&fabric, fabric.AddNode(), batching);
  SlimEndpoint b(&fabric, fabric.AddNode());
  const NodeId tap = fabric.AddNode();
  std::vector<std::vector<uint8_t>> captured;
  fabric.SetReceiver(tap, [&](Datagram d) { captured.push_back(std::move(d.payload)); });

  plain.Send(tap, 1, KeyEventMsg{7, true});
  sim.Run();
  ASSERT_EQ(captured.size(), 1u);
  const std::vector<uint8_t> key_event = captured[0];

  captured.clear();
  CheckpointChunkMsg chunk;
  chunk.epoch = 3;
  chunk.count = 1;
  chunk.data.resize(2 * kMtuBytes);
  for (size_t i = 0; i < chunk.data.size(); ++i) {
    chunk.data[i] = static_cast<uint8_t>(i * 151 + 29);
  }
  plain.Send(tap, 1, chunk);
  sim.Run();
  ASSERT_GE(captured.size(), 2u);
  const std::vector<uint8_t> chunk_fragment = captured[0];
  ASSERT_EQ(chunk_fragment.size(), static_cast<size_t>(kMtuBytes));

  captured.clear();
  for (int key = 1; key <= 3; ++key) {
    batcher.Send(tap, 1, KeyEventMsg{static_cast<uint32_t>(key), true});
  }
  sim.Run();
  ASSERT_EQ(captured.size(), 1u);
  const std::vector<uint8_t> batch = captured[0];
  ASSERT_EQ(batch[0], 0x5e);

  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  int64_t sent_bad = 0;
  const auto send_to_b = [&](std::vector<uint8_t> bytes, NodeId src) {
    fabric.Send(Datagram{src, b.node(), std::move(bytes)});
    sim.Run();  // one at a time, so full-MTU datagrams never overflow the switch queue
  };
  for (const std::vector<uint8_t>* genuine : {&key_event, &chunk_fragment, &batch}) {
    ASSERT_TRUE(ChecksumMatches(*genuine));
    std::vector<uint8_t> bent = *genuine;
    int64_t escapes = 0;
    std::string first_escape;
    const auto escaped = [&](std::string what) {
      if (escapes++ == 0) {
        first_escape = std::move(what);
      }
    };
    for (size_t offset = 0; offset < bent.size(); ++offset) {
      for (int x = 1; x <= 255; ++x) {
        bent[offset] ^= static_cast<uint8_t>(x);
        if (ChecksumMatches(bent)) {
          escaped("byte " + std::to_string(offset) + " ^ " + std::to_string(x));
        }
        if (offset % 97 == 0 && (x == 1 || x == 0x80 || x == 0xff)) {
          send_to_b(bent, plain.node());
          ++sent_bad;
        }
        bent[offset] ^= static_cast<uint8_t>(x);
      }
    }
    for (size_t len = 0; len < genuine->size(); ++len) {
      const std::span<const uint8_t> prefix(genuine->data(), len);
      if (ChecksumMatches(prefix)) {
        escaped("truncation to " + std::to_string(len) + " bytes");
      }
      if (len % 61 == 0) {
        send_to_b(std::vector<uint8_t>(prefix.begin(), prefix.end()), plain.node());
        ++sent_bad;
      }
    }
    EXPECT_EQ(escapes, 0) << "in a " << genuine->size() << "-byte datagram, first: "
                          << first_escape;
  }
  EXPECT_EQ(received, 0);
  EXPECT_EQ(b.stats().datagrams_corrupted, sent_bad);
  EXPECT_EQ(b.stats().reassembly_failures, 0);

  // The genuine key event and batch still deliver (the chunk fragment alone is an
  // incomplete message).
  send_to_b(key_event, plain.node());
  send_to_b(batch, batcher.node());
  EXPECT_EQ(received, 4);
}

TEST(TransportTest, StaleReplayBelowDedupWindowIsStillSuppressed) {
  // Regression: a replayed seq that has aged out of the 1024-entry dedup window must be
  // caught by the eviction floor instead of being applied a second time.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  a.Send(b.node(), 1, PingMsg{0});
  sim.Run();
  ASSERT_EQ(received, 1);
  // Push seq 1 far below the dedup window.
  for (int i = 0; i < 1600; ++i) {
    a.Send(b.node(), 1, PingMsg{static_cast<uint64_t>(i + 1)});
  }
  sim.Run();
  ASSERT_EQ(received, 1601);
  // Replay seq 1 directly, framed as the single-fragment datagram a sender honoring a
  // stale NACK would emit (a's replay history, 512 deep, no longer holds it).
  const int64_t dupes_before = b.stats().duplicate_messages;
  Message stale;
  stale.session_id = 1;
  stale.seq = 1;
  stale.body = PingMsg{0};
  fabric.Send(Datagram{a.node(), b.node(),
                       FrameFragment(0, 1, stale.seq, SerializeMessage(stale))});
  sim.Run();
  EXPECT_EQ(received, 1601) << "stale replay must not be applied twice";
  EXPECT_EQ(b.stats().duplicate_messages, dupes_before + 1);
}

TEST(TransportTest, PartialReassemblyContextTimesOut) {
  // One fragment of a three-fragment message arrives and the rest never does: the context
  // must be reclaimed on the timeout instead of leaking forever.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  EndpointOptions opts;
  opts.reassembly_timeout = Milliseconds(50);
  SlimEndpoint b(&fabric, fabric.AddNode(), opts);
  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });
  const std::vector<uint8_t> chunk(100, 0x11);
  fabric.Send(Datagram{a.node(), b.node(), FrameFragment(0, 3, 9, chunk)});
  sim.Run();  // runs the sweep event as well; the queue must drain completely
  EXPECT_EQ(received, 0);
  EXPECT_EQ(b.stats().reassembly_timeouts, 1);
  EXPECT_EQ(sim.pending_events(), 0u) << "no sweep timer may linger once contexts are gone";

  // Fragments of the same message arriving after the timeout start a fresh context; once
  // all three are present the message would still need to parse, so use a real one.
  SlimEndpoint c(&fabric, fabric.AddNode());
  std::vector<Message> delivered;
  b.set_handler([&](const Message& m, NodeId) { delivered.push_back(m); });
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 50, 50};
  cmd.rgb.assign(50 * 50 * 3, 0x3d);
  c.Send(b.node(), 2, cmd);
  sim.Run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(std::get<SetCommand>(delivered[0].body), cmd);
}

TEST(TransportTest, ReassemblyEvictsOldestContextNotMapOrder) {
  // Fill the reassembly table with partial contexts whose map order (keyed by msg_seq)
  // disagrees with their age: seq 100 is oldest but sorts last. Overflow must evict seq 100
  // (oldest by arrival), leaving the low-seq newcomers completable.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  EndpointOptions opts;
  opts.max_reassembly = 4;
  opts.reassembly_timeout = Seconds(10);  // timeouts out of the picture
  SlimEndpoint b(&fabric, fabric.AddNode(), opts);
  int received = 0;
  b.set_handler([&](const Message&, NodeId) { ++received; });

  const std::vector<uint8_t> chunk(100, 0x22);
  auto send_partial = [&](uint64_t seq) {
    fabric.Send(Datagram{a.node(), b.node(), FrameFragment(0, 2, seq, chunk)});
    sim.RunFor(Milliseconds(1));
  };
  send_partial(100);  // oldest by time, last in map order
  send_partial(2);
  send_partial(3);
  send_partial(4);
  // Seq 1: sorts first in the map, so map-order eviction would pick it as the victim the
  // moment its own arrival overflows the table. Send it as two real message halves.
  Message msg;
  msg.session_id = 1;
  msg.seq = 1;
  msg.body = PingMsg{42};
  const std::vector<uint8_t> wire = SerializeMessage(msg);
  const std::span<const uint8_t> wire_span(wire);
  const size_t half = wire.size() / 2;
  fabric.Send(Datagram{a.node(), b.node(), FrameFragment(0, 2, 1, wire_span.subspan(0, half))});
  // Bounded steps, not sim.Run(): draining the whole queue would fast-forward 10 s to the
  // sweep timer and expire the very context under test.
  sim.RunFor(Milliseconds(1));
  fabric.Send(Datagram{a.node(), b.node(), FrameFragment(1, 2, 1, wire_span.subspan(half))});
  sim.RunFor(Milliseconds(1));
  EXPECT_EQ(received, 1) << "the freshest context must not have been the eviction victim";
  EXPECT_EQ(b.stats().reassembly_failures, 1);  // exactly one eviction (seq 100, the oldest)
}

TEST(TransportTest, NackGateBacksOffWhenReplayKeepsFailing) {
  // A NACK whose replay never arrives must be retried on a widening (but bounded) gate,
  // not at the old fixed 5 ms cadence. Deliver seqs 2..20 (seq 1 permanently missing) from
  // a node with no endpoint behind it, so b's NACKs vanish unanswered.
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint b(&fabric, fabric.AddNode());
  const NodeId mute = fabric.AddNode();
  b.set_handler([](const Message&, NodeId) {});
  Message msg;
  msg.session_id = 1;
  msg.body = PingMsg{1};
  for (uint64_t seq = 2; seq <= 20; ++seq) {
    msg.seq = seq;
    fabric.Send(Datagram{mute, b.node(), FrameFragment(0, 1, seq, SerializeMessage(msg))});
    sim.RunFor(Milliseconds(10));
  }
  sim.Run();
  // 190 ms of arrivals, each a re-NACK opportunity: the old limiter would send ~19 NACKs;
  // the 5..40 ms exponential gate must settle at its cap and send far fewer.
  EXPECT_GT(b.stats().nack_backoffs, 0);
  EXPECT_GT(b.stats().nacks_sent, 2);
  EXPECT_LT(b.stats().nacks_sent, 12);
}

}  // namespace
}  // namespace slim
