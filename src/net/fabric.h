// Simulated interconnection fabric (IF).
//
// Models the paper's deployment: every node (console or server) hangs off one switch port
// over a dedicated full-duplex link. Each unidirectional link has a bandwidth, a propagation
// delay and a bounded FIFO output queue; datagrams experience store-and-forward serialization
// at the sender's link and again at the switch's egress port, which is exactly the contention
// point exercised by the Figure 11 IF-sharing experiment. Optional per-link loss and
// reordering injection exercise the protocol's replay path, and a deterministic chaos layer
// (FaultProfile, per directed node pair) additionally injects duplication, truncation and
// byte corruption so the transport's failure paths are tested against a genuinely hostile
// fabric, not just a slow one.

#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace slim {

class MetricRegistry;

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = 0xffffffff;

// Ethernet + IP + UDP framing bytes charged to every datagram on the wire.
constexpr int64_t kDatagramOverheadBytes = 46;

// Conventional MTU; the transport fragments SLIM messages to fit.
constexpr int64_t kMtuBytes = 1500;

struct Datagram {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::vector<uint8_t> payload;
};

struct LinkOptions {
  int64_t bits_per_second = 100'000'000;  // 100 Mbps, the paper's IF
  int64_t queue_limit_bytes = 256 * 1024;
  double loss_probability = 0.0;
  // When > 0, each datagram's delivery is additionally delayed by uniform [0, jitter],
  // which can reorder packets.
  SimDuration reorder_jitter = 0;
};

struct LinkStats {
  int64_t datagrams_sent = 0;
  int64_t datagrams_dropped_queue = 0;
  int64_t datagrams_dropped_loss = 0;
  int64_t bytes_sent = 0;  // includes framing overhead
};

// One unidirectional link: serialization at `bits_per_second`, then propagation.
class Link {
 public:
  using DeliverFn = std::function<void(Datagram)>;

  Link(Simulator* sim, LinkOptions options, Rng rng);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void Send(Datagram dgram);

  const LinkStats& stats() const { return stats_; }

  // Bytes currently queued behind the head of line (for tests and saturation checks).
  int64_t queued_bytes() const { return queued_bytes_; }

 private:
  Simulator* sim_;
  LinkOptions options_;
  Rng rng_;
  DeliverFn deliver_;
  SimTime busy_until_ = 0;
  int64_t queued_bytes_ = 0;
  LinkStats stats_;
};

struct FabricOptions {
  LinkOptions link;  // applied to every node<->switch link unless overridden per node
  // Base seed for the chaos layer; each directed (src, dst) pair derives its own stream from
  // it, so adding a faulty link never perturbs the fault schedule of another.
  uint64_t fault_seed = 0xc4a05f17u;
};

// Chaos-layer knobs for one directed (src, dst) path. All probabilities are per datagram
// and independent, so one datagram can be (say) both corrupted and duplicated; the faults
// compound the way a genuinely sick fabric's would. Draws come from a per-path RNG seeded
// from FabricOptions::fault_seed, so fault schedules are bit-for-bit reproducible.
struct FaultProfile {
  double loss = 0.0;       // datagram silently dropped
  double duplicate = 0.0;  // a second copy is injected (independently delayed)
  double corrupt = 0.0;    // 1..4 payload bytes are XOR-flipped
  double truncate = 0.0;   // the payload tail is chopped at a random offset
  // When > 0, each datagram (and each injected duplicate) is held back by an independent
  // uniform [0, delay_jitter) before entering its uplink, which reorders traffic.
  SimDuration delay_jitter = 0;

  bool active() const {
    return loss > 0.0 || duplicate > 0.0 || corrupt > 0.0 || truncate > 0.0 ||
           delay_jitter > 0;
  }
};

// What the chaos layer actually did; tests assert against these so a "survived chaos" pass
// can prove faults were really injected rather than the profile being a no-op.
struct FaultStats {
  int64_t datagrams_dropped = 0;
  int64_t datagrams_duplicated = 0;
  int64_t datagrams_corrupted = 0;
  int64_t datagrams_truncated = 0;
  int64_t datagrams_delayed = 0;
};

// Star topology around a single output-queued switch.
class Fabric {
 public:
  using ReceiveFn = std::function<void(Datagram)>;

  Fabric(Simulator* sim, FabricOptions options);

  // Adds a node with the fabric-default link options.
  NodeId AddNode();
  // Adds a node whose two links (to and from the switch) use custom options; this is how the
  // bandwidth-scaling experiments model a 1 Mbps home connection on an otherwise fast IF.
  NodeId AddNode(const LinkOptions& link_options);

  void SetReceiver(NodeId node, ReceiveFn fn);

  // Sends from dgram.src to dgram.dst. Unknown nodes are dropped silently (counted).
  void Send(Datagram dgram);

  // --- Chaos layer (fault injection) ---
  // Applies `profile` to every directed path without a per-pair override. Passing a
  // default-constructed profile turns the default chaos off.
  void InjectFaults(const FaultProfile& profile);
  // Applies `profile` to datagrams traveling src -> dst only (call twice, swapped, for a
  // symmetric sick link). Overrides the fabric-wide default for that path.
  void InjectFaults(NodeId src, NodeId dst, const FaultProfile& profile);
  // Removes the fabric-wide default and every per-pair override.
  void ClearFaults();

  Simulator* simulator() { return sim_; }

  // Aggregated stats.
  const LinkStats& uplink_stats(NodeId node) const;    // node -> switch
  const LinkStats& downlink_stats(NodeId node) const;  // switch -> node
  int64_t datagrams_misrouted() const { return misrouted_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  // Registers the chaos-layer counters (`<prefix>.fault.*`), misroute counter, and
  // whole-fabric uplink/downlink aggregates (pull-mode gauges summing every port) with
  // `registry`. Returns false if any name was rejected (duplicate prefix).
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "fabric");

 private:
  struct Port {
    std::unique_ptr<Link> up;    // node -> switch
    std::unique_ptr<Link> down;  // switch -> node
    ReceiveFn receive;
  };

  // Looks up the profile governing src -> dst (per-pair override first, then the fabric
  // default); returns nullptr when the path is healthy.
  const FaultProfile* ProfileFor(NodeId src, NodeId dst) const;
  Rng& FaultRngFor(NodeId src, NodeId dst);
  // Applies `profile` to one datagram: may drop it, mutate its payload, inject a duplicate
  // and/or delay the handoff to the uplink.
  void SendWithFaults(Datagram dgram, const FaultProfile& profile);
  void SendOnUplink(Datagram dgram);

  Simulator* sim_;
  FabricOptions options_;
  Rng rng_;
  std::vector<std::unique_ptr<Port>> ports_;
  int64_t misrouted_ = 0;

  std::optional<FaultProfile> default_faults_;
  std::map<std::pair<NodeId, NodeId>, FaultProfile> pair_faults_;
  std::map<std::pair<NodeId, NodeId>, Rng> fault_rngs_;
  FaultStats fault_stats_;
};

}  // namespace slim

#endif  // SRC_NET_FABRIC_H_
