#include "src/workload/user_study.h"

#include <algorithm>
#include <memory>

#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/workload/user_model.h"

namespace slim {

namespace {

// Every session runs on a full Sun Ray desktop, on the server and on the console.
constexpr int32_t kScreenWidth = 1280;
constexpr int32_t kScreenHeight = 1024;

}  // namespace

UserSessionResult RunUserSession(const UserSessionConfig& config) {
  Simulator sim;
  Fabric fabric(&sim, FabricOptions{});  // 100 Mbps switched IF, the paper's default

  ServerOptions server_options;
  server_options.session_width = kScreenWidth;
  server_options.session_height = kScreenHeight;
  SlimServer server(&sim, &fabric, server_options);

  ConsoleOptions console_options;
  console_options.width = kScreenWidth;
  console_options.height = kScreenHeight;
  Console console(&sim, &fabric, console_options);

  // Smart-card login: issue a card, create the session, insert the card at the console.
  const uint64_t card = server.auth().IssueCard(static_cast<uint32_t>(config.seed & 0xffffffff));
  ServerSession& session = server.CreateSession(card);
  std::unique_ptr<Application> app =
      MakeApplication(config.kind, &session, config.seed * 0x9e3779b97f4a7c15ull + 1);
  app->BindInput();

  console.InsertCard(server.node(), card);
  sim.Run();  // attach handshake + blank repaint
  app->Start();
  sim.Run();  // initial paint reaches the console
  // The logs skip the initial paint: the paper's traces measure steady-state interaction,
  // not login.
  session.log().Clear();
  console.ClearServiceLog();

  // Drive the user model through the console's input devices.
  UserModel user(config.kind, Rng(config.seed * 0xc0ffee + 17));
  Rng click_rng(config.seed * 0xdab + 3);
  int64_t events_sent = 0;
  std::function<void()> schedule_next = [&]() {
    UserModel::NextEvent event = user.Next();
    const SimTime at = sim.now() + event.delay;
    if (at > config.duration) {
      return;
    }
    sim.ScheduleAt(at, [&, event]() {
      ++events_sent;
      if (event.is_key) {
        console.SendKey(server.node(), session.id(), event.keycode, /*pressed=*/true);
      } else {
        const int32_t x = static_cast<int32_t>(click_rng.NextBelow(kScreenWidth));
        const int32_t y = static_cast<int32_t>(click_rng.NextBelow(kScreenHeight));
        console.SendMouse(server.node(), session.id(), x, y, /*buttons=*/1,
                          /*is_motion=*/false);
      }
      schedule_next();
    });
  };
  schedule_next();
  sim.Run();

  UserSessionResult result;
  result.log = session.log();
  result.console_log = console.service_log();
  result.commands_applied = console.commands_applied();
  result.commands_dropped = console.commands_dropped();
  result.input_events_sent = events_sent;
  result.framebuffers_match =
      std::ranges::equal(session.framebuffer().data(), console.framebuffer().data());
  return result;
}

std::vector<UserSessionResult> RunUserStudy(AppKind kind, int users, SimDuration duration,
                                            uint64_t base_seed) {
  std::vector<UserSessionResult> results;
  results.reserve(static_cast<size_t>(users));
  for (int u = 0; u < users; ++u) {
    UserSessionConfig config;
    config.kind = kind;
    config.seed = base_seed + static_cast<uint64_t>(u) * 7919 + 1;
    config.duration = duration;
    results.push_back(RunUserSession(config));
  }
  return results;
}

std::vector<double> UpdateServiceTimesMs(const std::vector<ServiceRecord>& log,
                                         SimDuration gap) {
  std::vector<double> out;
  size_t i = 0;
  while (i < log.size()) {
    const SimTime first_arrival = log[i].arrival;
    SimTime last_completion = log[i].completion;
    SimTime last_arrival = log[i].arrival;
    size_t j = i + 1;
    while (j < log.size() && log[j].arrival - last_arrival < gap) {
      last_arrival = log[j].arrival;
      last_completion = std::max(last_completion, log[j].completion);
      ++j;
    }
    out.push_back(ToMillis(last_completion - first_arrival));
    i = j;
  }
  return out;
}

}  // namespace slim
