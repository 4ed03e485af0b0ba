// Session-lifecycle policy for the SLIM server's session manager.
//
// The paper's signature property (Section 5.4, hotdesking) is that a session is pure
// server state: the card can appear at any console and the session follows it. That is
// only true if the lifecycle layer is robust on a lossy fabric with consoles that die
// silently, which is what these knobs govern:
//
//   detached ──attach──────────────▶ attached
//   attached ──attach@other─────────▶ attached   (hotdesk handoff: old console released)
//   attached ──detach/card pulled──▶ detached    (release sent to the console)
//   attached ──keepalive timeout───▶ detached    (console presumed dead)
//   detached ──evict_after idle────▶ (evicted)   (session + card mapping reclaimed)
//
// Liveness: while a session is attached the server pings its console every
// keepalive_interval; any message from that console (pong, input, status) counts as life.
// When the console has been silent for longer than keepalive_timeout, the probe counts as
// missed and the re-probe gap backs off exponentially (bounded at 2 s) so a dead console
// is not ping-hammered; after max_missed_probes consecutive misses the session is
// detached. A detach sends the console its release notice plus two copies 25 ms apart;
// a re-attach at that console cancels the copies still pending.
//
// Both periodic mechanisms default OFF (0) because an armed keepalive timer keeps the
// discrete-event queue non-empty forever: harnesses that enable them must pace the
// simulator with RunFor/RunUntil instead of Run().

#ifndef SRC_SERVER_LIFECYCLE_H_
#define SRC_SERVER_LIFECYCLE_H_

#include "src/util/time.h"

namespace slim {

// Where a session is in the attach/detach state machine. There is no distinct "handoff"
// state: a hotdesk pull releases the old console and attaches the new one in one step, so
// the session is never observable half-attached.
enum class SessionState { kDetached, kAttached };

inline const char* SessionStateName(SessionState s) {
  return s == SessionState::kAttached ? "attached" : "detached";
}

struct SessionLifecycleOptions {
  // Liveness probing period for attached sessions; 0 disables probing entirely.
  SimDuration keepalive_interval = 0;
  // Console silence beyond this makes a probe count as missed.
  SimDuration keepalive_timeout = Milliseconds(250);
  // Consecutive missed probes before the console is presumed dead and the session
  // detaches.
  int max_missed_probes = 3;
  // A session detached for this long is evicted (destroyed, card mapping reclaimed);
  // 0 keeps detached sessions forever (the seed behaviour).
  SimDuration evict_after = 0;
};

}  // namespace slim

#endif  // SRC_SERVER_LIFECYCLE_H_
