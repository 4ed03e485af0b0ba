#include "src/net/fabric.h"

#include <algorithm>

#include <utility>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Propagation delay of every link, after serialization.
constexpr SimDuration kPropagation = Microseconds(5);
// The node->switch direction is fed by the sending host's kernel, whose socket buffers
// absorb bursts and backpressure the writer instead of dropping; we model that as a much
// deeper uplink queue. Drops under contention happen at switch egress ports (the link
// queue limit), which is where real switched ethernet loses packets.
constexpr int64_t kHostQueueBytes = 8 * 1024 * 1024;

}  // namespace

Link::Link(Simulator* sim, LinkOptions options, Rng rng)
    : sim_(sim), options_(options), rng_(rng) {
  SLIM_CHECK(sim != nullptr);
  SLIM_CHECK(options.bits_per_second > 0);
}

void Link::Send(Datagram dgram) {
  const int64_t wire_bytes = static_cast<int64_t>(dgram.payload.size()) + kDatagramOverheadBytes;
  if (queued_bytes_ + wire_bytes > options_.queue_limit_bytes) {
    ++stats_.datagrams_dropped_queue;
    return;
  }
  if (options_.loss_probability > 0.0 && rng_.NextBool(options_.loss_probability)) {
    ++stats_.datagrams_dropped_loss;
    return;
  }
  ++stats_.datagrams_sent;
  stats_.bytes_sent += wire_bytes;
  queued_bytes_ += wire_bytes;

  const SimTime start = std::max(sim_->now(), busy_until_);
  const SimTime done = start + TransmissionDelay(wire_bytes, options_.bits_per_second);
  busy_until_ = done;
  SimDuration extra = kPropagation;
  if (options_.reorder_jitter > 0) {
    extra += static_cast<SimDuration>(rng_.NextBelow(static_cast<uint64_t>(
        options_.reorder_jitter)));
  }
  sim_->ScheduleAt(done + extra, [this, d = std::move(dgram), wire_bytes]() mutable {
    queued_bytes_ -= wire_bytes;
    if (deliver_) {
      deliver_(std::move(d));
    }
  });
}

Fabric::Fabric(Simulator* sim, FabricOptions options)
    : sim_(sim), options_(options), rng_(0xfab41c) {
  SLIM_CHECK(sim != nullptr);
}

NodeId Fabric::AddNode() { return AddNode(options_.link); }

NodeId Fabric::AddNode(const LinkOptions& link_options) {
  const NodeId id = static_cast<NodeId>(ports_.size());
  auto port = std::make_unique<Port>();
  LinkOptions up_options = link_options;
  up_options.queue_limit_bytes = std::max(up_options.queue_limit_bytes, kHostQueueBytes);
  port->up = std::make_unique<Link>(sim_, up_options, rng_.Split());
  port->down = std::make_unique<Link>(sim_, link_options, rng_.Split());
  // The uplink terminates at the switch, which forwards onto the destination's downlink.
  port->up->set_deliver([this](Datagram dgram) {
    if (dgram.dst >= ports_.size()) {
      ++misrouted_;
      return;
    }
    ports_[dgram.dst]->down->Send(std::move(dgram));
  });
  // The downlink terminates at the node's receive callback.
  Port* raw = port.get();
  port->down->set_deliver([raw](Datagram dgram) {
    if (raw->receive) {
      raw->receive(std::move(dgram));
    }
  });
  ports_.push_back(std::move(port));
  return id;
}

void Fabric::SetReceiver(NodeId node, ReceiveFn fn) {
  SLIM_CHECK(node < ports_.size());
  ports_[node]->receive = std::move(fn);
}

void Fabric::InjectFaults(const FaultProfile& profile) {
  if (profile.active()) {
    default_faults_ = profile;
  } else {
    default_faults_.reset();
  }
}

void Fabric::InjectFaults(NodeId src, NodeId dst, const FaultProfile& profile) {
  pair_faults_[{src, dst}] = profile;
}

void Fabric::ClearFaults() {
  default_faults_.reset();
  pair_faults_.clear();
}

const FaultProfile* Fabric::ProfileFor(NodeId src, NodeId dst) const {
  const auto it = pair_faults_.find({src, dst});
  if (it != pair_faults_.end()) {
    return it->second.active() ? &it->second : nullptr;
  }
  return default_faults_.has_value() ? &*default_faults_ : nullptr;
}

Rng& Fabric::FaultRngFor(NodeId src, NodeId dst) {
  const auto key = std::make_pair(src, dst);
  auto it = fault_rngs_.find(key);
  if (it == fault_rngs_.end()) {
    // Seeded purely from (fault_seed, src, dst): the schedule on one path does not depend
    // on which paths saw traffic first, keeping whole-fabric runs reproducible.
    it = fault_rngs_.emplace(key, Rng(Rng::MixSeed(options_.fault_seed, src, dst))).first;
  }
  return it->second;
}

void Fabric::SendWithFaults(Datagram dgram, const FaultProfile& profile) {
  Rng& rng = FaultRngFor(dgram.src, dgram.dst);
  if (profile.loss > 0.0 && rng.NextBool(profile.loss)) {
    ++fault_stats_.datagrams_dropped;
    return;
  }
  if (profile.truncate > 0.0 && dgram.payload.size() > 1 && rng.NextBool(profile.truncate)) {
    dgram.payload.resize(1 + rng.NextBelow(dgram.payload.size() - 1));
    ++fault_stats_.datagrams_truncated;
  }
  if (profile.corrupt > 0.0 && !dgram.payload.empty() && rng.NextBool(profile.corrupt)) {
    const uint64_t flips = 1 + rng.NextBelow(4);
    for (uint64_t i = 0; i < flips; ++i) {
      const size_t offset = static_cast<size_t>(rng.NextBelow(dgram.payload.size()));
      dgram.payload[offset] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    ++fault_stats_.datagrams_corrupted;
  }
  const bool duplicated = profile.duplicate > 0.0 && rng.NextBool(profile.duplicate);
  if (duplicated) {
    ++fault_stats_.datagrams_duplicated;
  }
  // The original and any duplicate draw independent injection delays, so a duplicate can
  // overtake its original — the nastiest reordering the dedup window must absorb.
  const int copies = duplicated ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    Datagram copy = (i + 1 == copies) ? std::move(dgram) : dgram;
    SimDuration hold = 0;
    if (profile.delay_jitter > 0) {
      hold = static_cast<SimDuration>(
          rng.NextBelow(static_cast<uint64_t>(profile.delay_jitter)));
    }
    if (hold > 0) {
      ++fault_stats_.datagrams_delayed;
      sim_->Schedule(hold, [this, d = std::move(copy)]() mutable { SendOnUplink(std::move(d)); });
    } else {
      SendOnUplink(std::move(copy));
    }
  }
}

void Fabric::SendOnUplink(Datagram dgram) {
  ports_[dgram.src]->up->Send(std::move(dgram));
}

void Fabric::Send(Datagram dgram) {
  if (dgram.src >= ports_.size() || dgram.dst >= ports_.size()) {
    ++misrouted_;
    return;
  }
  if (const FaultProfile* profile = ProfileFor(dgram.src, dgram.dst)) {
    SendWithFaults(std::move(dgram), *profile);
    return;
  }
  SendOnUplink(std::move(dgram));
}

bool Fabric::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  bool ok = true;
  const auto bind = [&](const std::string& name, const int64_t* cell) {
    ok = registry->BindCounter(prefix + "." + name, cell) && ok;
  };
  bind("fault.datagrams_dropped", &fault_stats_.datagrams_dropped);
  bind("fault.datagrams_duplicated", &fault_stats_.datagrams_duplicated);
  bind("fault.datagrams_corrupted", &fault_stats_.datagrams_corrupted);
  bind("fault.datagrams_truncated", &fault_stats_.datagrams_truncated);
  bind("fault.datagrams_delayed", &fault_stats_.datagrams_delayed);
  bind("datagrams_misrouted", &misrouted_);
  // Per-link counters roll up into whole-fabric gauges: pull-mode sums over every port,
  // evaluated only at snapshot time, so nodes added after registration are still counted.
  const auto sum = [this](int64_t LinkStats::* field, bool up) {
    return [this, field, up] {
      int64_t total = 0;
      for (const auto& port : ports_) {
        total += (up ? port->up : port->down)->stats().*field;
      }
      return static_cast<double>(total);
    };
  };
  const auto gauge = [&](const std::string& name, int64_t LinkStats::* field, bool up) {
    ok = registry->BindGauge(prefix + "." + name, sum(field, up)) && ok;
  };
  gauge("uplink.datagrams_sent", &LinkStats::datagrams_sent, true);
  gauge("uplink.bytes_sent", &LinkStats::bytes_sent, true);
  gauge("uplink.datagrams_dropped_queue", &LinkStats::datagrams_dropped_queue, true);
  gauge("uplink.datagrams_dropped_loss", &LinkStats::datagrams_dropped_loss, true);
  gauge("downlink.datagrams_sent", &LinkStats::datagrams_sent, false);
  gauge("downlink.bytes_sent", &LinkStats::bytes_sent, false);
  gauge("downlink.datagrams_dropped_queue", &LinkStats::datagrams_dropped_queue, false);
  gauge("downlink.datagrams_dropped_loss", &LinkStats::datagrams_dropped_loss, false);
  return ok;
}

const LinkStats& Fabric::uplink_stats(NodeId node) const {
  SLIM_CHECK(node < ports_.size());
  return ports_[node]->up->stats();
}

const LinkStats& Fabric::downlink_stats(NodeId node) const {
  SLIM_CHECK(node < ports_.size());
  return ports_[node]->down->stats();
}

}  // namespace slim
