// End-to-end user-study harness (paper Sections 3.1 and 5).
//
// Runs one simulated user per (application, seed) through the full stack — user model ->
// console input -> fabric -> server -> application drawing -> encoder -> fabric -> console
// decode — and returns the instrumented logs that all of Figures 2-8 post-process. Each
// user runs on a private simulator/fabric/server, reproducing the paper's underloaded
// two-server setup where traces are "indicative of stand-alone operation".

#ifndef SRC_WORKLOAD_USER_STUDY_H_
#define SRC_WORKLOAD_USER_STUDY_H_

#include <vector>

#include "src/apps/application.h"
#include "src/console/console.h"
#include "src/trace/protocol_log.h"
#include "src/util/time.h"

namespace slim {

struct UserSessionConfig {
  AppKind kind = AppKind::kNetscape;
  uint64_t seed = 1;
  SimDuration duration = Seconds(600);
};

struct UserSessionResult {
  ProtocolLog log;                        // server-side instrumented protocol log
  std::vector<ServiceRecord> console_log;  // per-command decode timings at the console
  int64_t commands_applied = 0;
  int64_t commands_dropped = 0;
  int64_t input_events_sent = 0;
  bool framebuffers_match = false;  // server truth vs console soft state at session end
};

UserSessionResult RunUserSession(const UserSessionConfig& config);

// Convenience: runs `users` independent sessions with seeds derived from base_seed.
std::vector<UserSessionResult> RunUserStudy(AppKind kind, int users, SimDuration duration,
                                            uint64_t base_seed = 0x57d1);

// Groups a console service log into display updates: commands separated by less than
// `gap` belong to one update. Returns (start-to-finish service time in ms) per update —
// the quantity Figure 7 plots.
std::vector<double> UpdateServiceTimesMs(const std::vector<ServiceRecord>& log,
                                         SimDuration gap = Milliseconds(2));

}  // namespace slim

#endif  // SRC_WORKLOAD_USER_STUDY_H_
