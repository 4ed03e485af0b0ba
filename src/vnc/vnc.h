// A VNC-style client-pull remote display baseline (paper Section 8.3).
//
// The paper contrasts SLIM's server-push model ("updates are transmitted ... as they occur")
// with VNC's client-demand model: the viewer periodically requests the current framebuffer
// state, and the server responds with everything that changed since the last request —
// which requires the server to either keep complex state or compute a large delta between
// framebuffer generations. Both costs are modeled here: the mirror keeps a full shadow copy
// (the state) and scans it against the live framebuffer on every request (the delta).
//
// The encoding reuses the SLIM command set, so the comparison isolates the *update model*:
// pull-with-delta versus push-at-damage-time. bench_related_vnc measures the added
// keystroke-to-pixels latency, reproducing the paper's observation that VNC feels sluggish
// even on a fast network.

#ifndef SRC_VNC_VNC_H_
#define SRC_VNC_VNC_H_

#include <memory>

#include "src/codec/encoder.h"
#include "src/net/transport.h"
#include "src/server/session.h"
#include "src/sim/simulator.h"

namespace slim {

struct VncOptions {
  // Viewer poll cadence. Real VNC viewers request as fast as the previous update completes;
  // on a LAN that is effectively a fixed small interval.
  SimDuration poll_interval = Milliseconds(50);
};

// Attaches a pull-model viewer to a ServerSession's framebuffer. The session should have no
// SLIM console attached (VNC replaces the console in this comparison).
class VncViewerSystem {
 public:
  VncViewerSystem(Simulator* sim, Fabric* fabric, ServerSession* source, VncOptions options);

  void Start();
  void Stop();

  const Framebuffer& viewer_framebuffer() const { return viewer_fb_; }

  int64_t updates() const { return updates_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  SimDuration diff_cpu_time() const { return diff_cpu_time_; }
  // When the viewer's copy last became identical to the source.
  SimTime last_synced_at() const { return last_synced_at_; }
  bool InSync() const;

 private:
  void OnViewerMessage(const Message& msg, NodeId from);
  void OnServerMessage(const Message& msg, NodeId from);
  void Poll();

  Simulator* sim_;
  ServerSession* source_;
  VncOptions options_;
  Encoder encoder_;
  Framebuffer shadow_;     // server-side state of what the viewer has
  Framebuffer viewer_fb_;  // the viewer's actual copy
  std::unique_ptr<SlimEndpoint> server_end_;
  std::unique_ptr<SlimEndpoint> viewer_end_;
  bool running_ = false;
  bool request_outstanding_ = false;
  int64_t updates_ = 0;
  int64_t bytes_sent_ = 0;
  SimDuration diff_cpu_time_ = 0;
  SimTime last_synced_at_ = 0;
};

}  // namespace slim

#endif  // SRC_VNC_VNC_H_
