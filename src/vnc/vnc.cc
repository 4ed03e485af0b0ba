#include "src/vnc/vnc.h"

#include <algorithm>

#include "src/codec/decoder.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Server CPU cost of scanning one pixel of the framebuffer for the delta.
constexpr double kDiffNsPerPixel = 2.0;

}  // namespace

VncViewerSystem::VncViewerSystem(Simulator* sim, Fabric* fabric, ServerSession* source,
                                 VncOptions options)
    : sim_(sim),
      source_(source),
      options_(options),
      shadow_(source->framebuffer().width(), source->framebuffer().height()),
      viewer_fb_(source->framebuffer().width(), source->framebuffer().height()) {
  SLIM_CHECK(sim != nullptr && fabric != nullptr && source != nullptr);
  server_end_ = std::make_unique<SlimEndpoint>(fabric, fabric->AddNode());
  viewer_end_ = std::make_unique<SlimEndpoint>(fabric, fabric->AddNode());
  server_end_->set_handler([this](Message&& msg, NodeId from) { OnServerMessage(msg, from); });
  viewer_end_->set_handler([this](Message&& msg, NodeId from) { OnViewerMessage(msg, from); });
}

void VncViewerSystem::Start() {
  running_ = true;
  Poll();
}

void VncViewerSystem::Stop() { running_ = false; }

void VncViewerSystem::Poll() {
  if (!running_) {
    return;
  }
  if (!request_outstanding_) {
    request_outstanding_ = true;
    viewer_end_->Send(server_end_->node(), 1, PingMsg{static_cast<uint64_t>(sim_->now())});
  }
  sim_->Schedule(options_.poll_interval, [this] { Poll(); });
}

void VncViewerSystem::OnServerMessage(const Message& msg, NodeId from) {
  if (!std::holds_alternative<PingMsg>(msg.body)) {
    return;
  }
  // The client-pull cost: scan the whole framebuffer against the shadow generation...
  const Framebuffer& live = source_->framebuffer();
  const auto diff = shadow_.DiffWith(live);
  const auto scan_cost =
      static_cast<SimDuration>(kDiffNsPerPixel * static_cast<double>(live.bounds().area()));
  diff_cpu_time_ += scan_cost;
  // ...then encode and send everything that changed, after the scan time has elapsed.
  sim_->Schedule(scan_cost, [this, damage = diff.damage, from]() {
    const Framebuffer& now_live = source_->framebuffer();
    std::vector<DisplayCommand> cmds = encoder_.EncodeDamage(now_live, damage);
    for (auto& cmd : cmds) {
      bytes_sent_ += static_cast<int64_t>(WireSize(cmd));
      const bool ok = ApplyCommand(cmd, &shadow_);
      SLIM_DCHECK(ok);
      (void)ok;
      std::visit([&](auto& body) { server_end_->Send(from, 1, std::move(body)); }, cmd);
    }
    // Terminate the update with a pong so the viewer knows this request is complete.
    server_end_->Send(from, 1, PongMsg{0});
    ++updates_;
  });
}

void VncViewerSystem::OnViewerMessage(const Message& msg, NodeId from) {
  (void)from;
  if (std::holds_alternative<PongMsg>(msg.body)) {
    request_outstanding_ = false;
    if (InSync()) {
      last_synced_at_ = sim_->now();
    }
    return;
  }
  std::visit(
      [this](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, SetCommand> || std::is_same_v<T, BitmapCommand> ||
                      std::is_same_v<T, FillCommand> || std::is_same_v<T, CopyCommand> ||
                      std::is_same_v<T, CscsCommand>) {
          const bool ok = ApplyCommand(DisplayCommand(body), &viewer_fb_);
          SLIM_DCHECK(ok);
          (void)ok;
        }
      },
      msg.body);
}

bool VncViewerSystem::InSync() const {
  return std::ranges::equal(viewer_fb_.data(), source_->framebuffer().data());
}

}  // namespace slim
