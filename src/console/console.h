// The SLIM console: a stateless desktop terminal.
//
// A Console owns a soft-state framebuffer and a transport endpoint. It decodes display
// commands for real (pixels are exact) while charging simulated time from the Table 5 cost
// model through a single busy-server decode pipeline; commands that arrive faster than the
// pipeline drains queue up to the device's memory limit and are then dropped, exactly the
// saturation behaviour the paper used to characterize the hardware. Input devices (keyboard,
// mouse, smart-card reader) inject upstream messages.

#ifndef SRC_CONSOLE_CONSOLE_H_
#define SRC_CONSOLE_CONSOLE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/console/bandwidth.h"
#include "src/fb/framebuffer.h"
#include "src/net/fabric.h"
#include "src/net/transport.h"
#include "src/protocol/commands.h"
#include "src/sim/simulator.h"

namespace slim {

class ExpHistogram;
class MetricRegistry;

struct ConsoleOptions {
  int32_t width = 1280;
  int32_t height = 1024;
  // Total downstream bandwidth the Section 7 allocator hands out.
  int64_t allocatable_bps = 100'000'000;
  // Record per-command service times (Figure 7 / Table 5 harnesses); costs memory.
  bool record_service_log = true;
};

// One decoded display command's timing, the unit of the paper's service-time analysis.
struct ServiceRecord {
  SimTime arrival = 0;     // message fully received at the console
  SimTime start = 0;       // decode began (arrival + queueing)
  SimTime completion = 0;  // pixels guaranteed on the display
  CommandType type = CommandType::kSet;
  int64_t pixels = 0;
  size_t wire_bytes = 0;
  uint64_t seq = 0;
};

class Console {
 public:
  Console(Simulator* sim, Fabric* fabric, ConsoleOptions options);

  NodeId node() const { return endpoint_->node(); }
  Framebuffer& framebuffer() { return fb_; }
  const Framebuffer& framebuffer() const { return fb_; }
  SlimEndpoint& endpoint() { return *endpoint_; }

  // --- Input devices ---
  void SendKey(NodeId server, uint32_t session, uint32_t keycode, bool pressed);
  void SendMouse(NodeId server, uint32_t session, int32_t x, int32_t y, uint8_t buttons,
                 bool is_motion);
  void InsertCard(NodeId server, uint64_t card_id);
  void RemoveCard(NodeId server, uint64_t card_id);

  // --- Observability ---
  const std::vector<ServiceRecord>& service_log() const { return service_log_; }
  void ClearServiceLog() { service_log_.clear(); }
  int64_t commands_applied() const { return commands_applied_; }
  int64_t commands_dropped() const { return commands_dropped_; }
  int64_t commands_rejected() const { return commands_rejected_; }
  int64_t cscs_stream_hits() const { return cscs_stream_hits_; }
  int64_t audio_bytes() const { return audio_bytes_; }
  // Session-lifecycle observability: release notices honoured (screen blanked), release
  // copies ignored as stale (a newer repaint had already been accepted), display commands
  // dropped because they predate an applied release, keepalive pings answered.
  int64_t releases_applied() const { return releases_applied_; }
  int64_t stale_releases_ignored() const { return stale_releases_ignored_; }
  int64_t post_release_drops() const { return post_release_drops_; }
  int64_t pings_answered() const { return pings_answered_; }
  // Section 7: BandwidthGrantMsg copies sent (answers plus revisions pushed to other flows
  // whose share moved when a request arrived or a flow died).
  int64_t grants_sent() const { return grants_sent_; }
  SimTime busy_until() const { return busy_until_; }
  // Time the decode pipeline has spent busy (for utilization accounting).
  SimDuration busy_time() const { return busy_time_; }

  const BandwidthAllocator& allocator() const { return allocator_; }

  // Registers the console's counters (`<prefix>.*`), decode latency/size histograms, and
  // its transport endpoint's counters (`<prefix>.transport.*`) with `registry`. Returns
  // false if any name was rejected (duplicate prefix).
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "console");

  // Invoked after each command is applied (completion time semantics).
  using ApplyCallback = std::function<void(const ServiceRecord&)>;
  void set_apply_callback(ApplyCallback cb) { apply_callback_ = std::move(cb); }

 private:
  void OnMessage(Message&& msg, NodeId from);
  // `seq` is the command's message sequence number.
  void ProcessDisplayCommand(uint64_t seq, DisplayCommand cmd);
  void ProcessRelease(const Message& msg, NodeId from);
  void HandleBandwidthRequest(const Message& msg, NodeId from, const BandwidthRequestMsg& req);
  // Sends a grant to every flow in `grants` whose value differs from the last one sent to
  // it (the requester always hears back, changed or not — a request deserves an answer).
  void BroadcastGrants(const std::vector<BandwidthGrant>& grants, uint64_t requester_flow);

  Simulator* sim_;
  ConsoleOptions options_;
  Framebuffer fb_;
  std::unique_ptr<SlimEndpoint> endpoint_;
  BandwidthAllocator allocator_;

  SimTime busy_until_ = 0;
  SimDuration busy_time_ = 0;
  int64_t queued_bytes_ = 0;
  // Recently-seen CSCS stream geometries (src dims + destination); a hit means the graphics
  // controller state is already configured and the warm-path cost applies.
  struct StreamState {
    int32_t src_w;
    int32_t src_h;
    Rect dst;
    bool operator==(const StreamState&) const = default;
  };
  std::vector<StreamState> stream_cache_;  // small LRU, most recent at the back
  int64_t cscs_stream_hits_ = 0;
  int64_t commands_applied_ = 0;
  int64_t commands_dropped_ = 0;
  int64_t commands_rejected_ = 0;
  int64_t audio_bytes_ = 0;
  int64_t releases_applied_ = 0;
  int64_t stale_releases_ignored_ = 0;
  int64_t post_release_drops_ = 0;
  int64_t pings_answered_ = 0;
  // Per-sender sequence guards for session handoff. The console stays stateless in the
  // architectural sense — both are soft state that can be rebuilt by a repaint — but they
  // let it order a release notice against display traffic racing it through the fabric:
  // a release older than an accepted display command is stale (the session came back), and
  // a display command older than an applied release is dead traffic (NACK replay of the
  // released stream) that must not dirty a blanked screen.
  std::map<NodeId, uint64_t> last_display_seq_;
  std::map<NodeId, uint64_t> release_floor_;
  // Return address of each granted flow, so the allocator's revisions can travel back to
  // the server that asked. Like everything here it is soft state: a server whose flows
  // vanish (applied release) just re-requests on the next attach.
  struct FlowSource {
    NodeId node = kInvalidNode;
    uint32_t session = 0;
  };
  std::map<uint64_t, FlowSource> flow_sources_;
  std::map<uint64_t, int64_t> last_sent_grant_;
  int64_t grants_sent_ = 0;
  std::vector<ServiceRecord> service_log_;
  ApplyCallback apply_callback_;
  // Registry-owned histograms, non-null only after RegisterMetrics; bumping them is a
  // branch + O(1) when registered, nothing otherwise.
  ExpHistogram* decode_ns_hist_ = nullptr;
  ExpHistogram* queue_wait_ns_hist_ = nullptr;
  ExpHistogram* command_bytes_hist_ = nullptr;
};

}  // namespace slim

#endif  // SRC_CONSOLE_CONSOLE_H_
