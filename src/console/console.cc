#include "src/console/console.h"

#include <algorithm>

#include "src/codec/decoder.h"
#include "src/console/cost_model.h"
#include "src/obs/latency_audit.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Command memory: the Sun Ray 1 uses 2MB of its 8MB; queued protocol data beyond this is
// dropped (and recovered by replay when the sender cares).
constexpr int64_t kCommandMemoryBytes = 2 * 1024 * 1024;

}  // namespace

Console::Console(Simulator* sim, Fabric* fabric, ConsoleOptions options)
    : sim_(sim),
      options_(options),
      fb_(options.width, options.height),
      allocator_(options.allocatable_bps) {
  SLIM_CHECK(sim != nullptr && fabric != nullptr);
  endpoint_ = std::make_unique<SlimEndpoint>(fabric, fabric->AddNode());
  endpoint_->set_handler([this](const Message& msg, NodeId from) { OnMessage(msg, from); });
}

void Console::SendKey(NodeId server, uint32_t session, uint32_t keycode, bool pressed) {
  if (Tracer* tracer = Tracer::Global(); tracer != nullptr && pressed) {
    tracer->Instant(sim_->now(), "input.key", "input", kTraceTidInput,
                    {{"keycode", JsonValue(int64_t{keycode})}});
  }
  endpoint_->Send(server, session, KeyEventMsg{keycode, pressed});
}

void Console::SendMouse(NodeId server, uint32_t session, int32_t x, int32_t y, uint8_t buttons,
                        bool is_motion) {
  if (Tracer* tracer = Tracer::Global(); tracer != nullptr && !is_motion) {
    tracer->Instant(sim_->now(), "input.mouse", "input", kTraceTidInput,
                    {{"x", JsonValue(int64_t{x})}, {"y", JsonValue(int64_t{y})}});
  }
  endpoint_->Send(server, session, MouseEventMsg{x, y, buttons, is_motion});
}

bool Console::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  bool ok = true;
  ok = registry->BindCounter(prefix + ".commands_applied", &commands_applied_) && ok;
  ok = registry->BindCounter(prefix + ".commands_dropped", &commands_dropped_) && ok;
  ok = registry->BindCounter(prefix + ".commands_rejected", &commands_rejected_) && ok;
  ok = registry->BindCounter(prefix + ".cscs_stream_hits", &cscs_stream_hits_) && ok;
  ok = registry->BindCounter(prefix + ".audio_bytes", &audio_bytes_) && ok;
  ok = registry->BindCounter(prefix + ".releases_applied", &releases_applied_) && ok;
  ok = registry->BindCounter(prefix + ".stale_releases_ignored", &stale_releases_ignored_) &&
       ok;
  ok = registry->BindCounter(prefix + ".post_release_drops", &post_release_drops_) && ok;
  ok = registry->BindCounter(prefix + ".pings_answered", &pings_answered_) && ok;
  ok = registry->BindCounter(prefix + ".grants_sent", &grants_sent_) && ok;
  ok = registry->BindGauge(prefix + ".queued_bytes",
                           [this] { return static_cast<double>(queued_bytes_); }) &&
       ok;
  ok = registry->BindGauge(prefix + ".busy_ns",
                           [this] { return static_cast<double>(busy_time_); }) &&
       ok;
  decode_ns_hist_ = registry->Histogram(prefix + ".decode_ns");
  queue_wait_ns_hist_ = registry->Histogram(prefix + ".queue_wait_ns");
  command_bytes_hist_ = registry->Histogram(prefix + ".command_bytes");
  ok = ok && decode_ns_hist_ != nullptr && queue_wait_ns_hist_ != nullptr &&
       command_bytes_hist_ != nullptr;
  return endpoint_->RegisterMetrics(registry, prefix + ".transport") && ok;
}

void Console::InsertCard(NodeId server, uint64_t card_id) {
  endpoint_->Send(server, 0, SessionAttachMsg{card_id});
}

void Console::RemoveCard(NodeId server, uint64_t card_id) {
  endpoint_->Send(server, 0, SessionDetachMsg{card_id});
}

void Console::OnMessage(const Message& msg, NodeId from) {
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, SetCommand> || std::is_same_v<T, BitmapCommand> ||
                      std::is_same_v<T, FillCommand> || std::is_same_v<T, CopyCommand> ||
                      std::is_same_v<T, CscsCommand>) {
          // A sequenced command older than an applied release belongs to the released
          // stream (a NACK replay that lost the race); it must not dirty the blank screen.
          if (const auto floor = release_floor_.find(from);
              floor != release_floor_.end() && msg.seq != 0 && msg.seq < floor->second) {
            ++post_release_drops_;
            if (LatencyAudit* audit = LatencyAudit::Global()) {
              audit->NoteConsoleDrop(endpoint_->node(), msg.seq);
            }
            return;
          }
          if (msg.seq != 0) {
            uint64_t& high = last_display_seq_[from];
            high = std::max(high, msg.seq);
          }
          ProcessDisplayCommand(msg, DisplayCommand(body));
        } else if constexpr (std::is_same_v<T, SessionReleaseMsg>) {
          ProcessRelease(msg, from);
        } else if constexpr (std::is_same_v<T, PingMsg>) {
          // Keepalive responder: the pong is what the server's liveness probe listens for.
          ++pings_answered_;
          endpoint_->Send(from, msg.session_id, PongMsg{body.payload});
        } else if constexpr (std::is_same_v<T, BandwidthRequestMsg>) {
          HandleBandwidthRequest(msg, from, body);
        } else if constexpr (std::is_same_v<T, AudioMsg>) {
          audio_bytes_ += static_cast<int64_t>(body.samples.size());
        } else {
          // Status, session and grant messages are server-side concerns; a console that
          // receives them ignores them (it is stateless and has nothing to update).
        }
      },
      msg.body);
}

void Console::HandleBandwidthRequest(const Message& msg, NodeId from,
                                     const BandwidthRequestMsg& req) {
  // Section 7 allocation: recompute, then push a grant to every flow whose share moved —
  // not just the requester. A non-positive rate withdraws the flow entirely.
  const std::vector<BandwidthGrant> grants =
      allocator_.Request(req.flow_id, req.bits_per_second);
  if (req.bits_per_second <= 0) {
    flow_sources_.erase(req.flow_id);
    last_sent_grant_.erase(req.flow_id);
  } else {
    flow_sources_[req.flow_id] = FlowSource{from, msg.session_id};
  }
  BroadcastGrants(grants, req.flow_id);
}

void Console::BroadcastGrants(const std::vector<BandwidthGrant>& grants,
                              uint64_t requester_flow) {
  for (const auto& g : grants) {
    const auto src = flow_sources_.find(g.flow_id);
    if (src == flow_sources_.end()) {
      continue;
    }
    const auto last = last_sent_grant_.find(g.flow_id);
    const bool changed =
        last == last_sent_grant_.end() || last->second != g.bits_per_second;
    if (!changed && g.flow_id != requester_flow) {
      continue;  // an unchanged share needs no revision message
    }
    last_sent_grant_[g.flow_id] = g.bits_per_second;
    ++grants_sent_;
    endpoint_->Send(src->second.node, src->second.session,
                    BandwidthGrantMsg{g.flow_id, g.bits_per_second, allocator_.total_bps()});
  }
}

void Console::ProcessRelease(const Message& msg, NodeId from) {
  // Stale copy: a display command newer than this release has already been accepted, so
  // the session that this notice releases has since come back to this console (fast
  // hotdesk round trip, or a delayed duplicate). Blanking now would wipe a live screen.
  if (const auto high = last_display_seq_.find(from);
      high != last_display_seq_.end() && msg.seq != 0 && msg.seq < high->second) {
    ++stale_releases_ignored_;
    return;
  }
  if (msg.seq != 0) {
    uint64_t& floor = release_floor_[from];
    floor = std::max(floor, msg.seq);
  }
  ++releases_applied_;
  // The released session's bandwidth dies with it: every flow this server had granted is
  // removed and the freed share is rebroadcast to the survivors immediately (no
  // stale-grant window — the whole point of Remove returning the fresh set).
  std::vector<uint64_t> dead;
  for (const auto& [flow, src] : flow_sources_) {
    if (src.node == from) {
      dead.push_back(flow);
    }
  }
  if (!dead.empty()) {
    std::vector<BandwidthGrant> grants;
    for (const uint64_t flow : dead) {
      grants = allocator_.Remove(flow);
      flow_sources_.erase(flow);
      last_sent_grant_.erase(flow);
    }
    BroadcastGrants(grants, /*requester_flow=*/0);
  }
  // The blank runs through the decode pipeline like any command: commands already queued
  // (all older than the release) finish first, then the screen goes dark. The stream cache
  // dies with the session — the next occupant's streams are not this one's.
  const SimTime at = std::max(sim_->now(), busy_until_);
  busy_until_ = at;
  sim_->ScheduleAt(at, [this] {
    fb_.Fill(fb_.bounds(), kBlack);
    stream_cache_.clear();
  });
}

void Console::ProcessDisplayCommand(const Message& msg, const DisplayCommand& cmd) {
  LatencyAudit* const audit = LatencyAudit::Global();
  if (!ValidateCommand(cmd)) {
    ++commands_rejected_;
    if (audit != nullptr) {
      audit->NoteConsoleDrop(endpoint_->node(), msg.seq);
    }
    return;
  }
  const size_t wire_bytes = WireSize(cmd);
  if (queued_bytes_ + static_cast<int64_t>(wire_bytes) > kCommandMemoryBytes) {
    ++commands_dropped_;
    if (audit != nullptr) {
      audit->NoteConsoleDrop(endpoint_->node(), msg.seq);
    }
    return;
  }
  queued_bytes_ += static_cast<int64_t>(wire_bytes);

  SimDuration cost;
  if (const auto* cscs = std::get_if<CscsCommand>(&cmd)) {
    const StreamState state{cscs->src_w, cscs->src_h, cscs->dst};
    const auto it = std::find(stream_cache_.begin(), stream_cache_.end(), state);
    if (it != stream_cache_.end()) {
      ++cscs_stream_hits_;
      cost = ConsoleCostModel::StreamingCscsCost(*cscs);
      stream_cache_.erase(it);
    } else {
      cost = ConsoleCostModel::CostOf(cmd);
    }
    stream_cache_.push_back(state);
    if (stream_cache_.size() > 8) {
      stream_cache_.erase(stream_cache_.begin());
    }
  } else {
    cost = ConsoleCostModel::CostOf(cmd);
  }

  ServiceRecord record;
  record.arrival = sim_->now();
  record.start = std::max(sim_->now(), busy_until_);
  record.completion = record.start + cost;
  record.type = TypeOf(cmd);
  record.pixels = AffectedPixels(cmd);
  record.wire_bytes = wire_bytes;
  record.seq = msg.seq;
  busy_until_ = record.completion;
  busy_time_ += cost;
  if (audit != nullptr) {
    audit->NoteDecodeStart(endpoint_->node(), record.seq, record.arrival);
  }
  if (decode_ns_hist_ != nullptr) {
    decode_ns_hist_->Record(cost);
    queue_wait_ns_hist_->Record(record.start - record.arrival);
    command_bytes_hist_->Record(static_cast<int64_t>(wire_bytes));
  }
  if (Tracer* tracer = Tracer::Global()) {
    if (record.start > record.arrival) {
      tracer->Complete(record.arrival, record.start - record.arrival, "console.queue_wait",
                       "console", kTraceTidConsole,
                       {{"seq", JsonValue(static_cast<int64_t>(record.seq))}});
    }
    tracer->Complete(record.start, cost, "console.decode", "console", kTraceTidConsole,
                     {{"type", JsonValue(CommandTypeName(record.type))},
                      {"pixels", JsonValue(record.pixels)},
                      {"wire_bytes", JsonValue(static_cast<int64_t>(record.wire_bytes))},
                      {"seq", JsonValue(static_cast<int64_t>(record.seq))}});
  }

  sim_->ScheduleAt(record.completion, [this, cmd, record]() {
    queued_bytes_ -= static_cast<int64_t>(record.wire_bytes);
    if (!ApplyCommand(cmd, &fb_)) {
      // ValidateCommand is framebuffer-agnostic, so a COPY whose source rect exits the
      // framebuffer (corruption, malice) is only caught here; reject, don't apply.
      ++commands_rejected_;
      if (LatencyAudit* a = LatencyAudit::Global()) {
        a->NoteConsoleDrop(endpoint_->node(), record.seq);
      }
      return;
    }
    ++commands_applied_;
    if (Tracer* tracer = Tracer::Global()) {
      tracer->Instant(record.completion, "console.present", "console", kTraceTidConsole,
                      {{"seq", JsonValue(static_cast<int64_t>(record.seq))}});
    }
    if (LatencyAudit* a = LatencyAudit::Global()) {
      a->NotePresent(endpoint_->node(), record.seq, record.completion);
    }
    if (options_.record_service_log) {
      service_log_.push_back(record);
    }
    if (apply_callback_) {
      apply_callback_(record);
    }
  });
}

}  // namespace slim
