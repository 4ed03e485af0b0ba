#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <optional>
#include <variant>

#include "src/apps/application.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/obs/latency_audit.h"
#include "src/protocol/messages.h"
#include "src/server/migration.h"
#include "src/server/session.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/video/video_source.h"
#include "src/workload/user_model.h"

namespace perfbench {
namespace {

using slim::AppKind;
using slim::Console;
using slim::Fabric;
using slim::Framebuffer;
using slim::MigrationManager;
using slim::Rng;
using slim::ServerSession;
using slim::SimDuration;
using slim::SimTime;
using slim::SlimServer;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

bool SamePixels(const Framebuffer& a, const Framebuffer& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

slim::ConsoleOptions ConsoleFor(int32_t width, int32_t height) {
  slim::ConsoleOptions options;
  options.width = width;
  options.height = height;
  // The benchmark observes applies through the callback; the per-command log would only
  // grow for the whole round.
  options.record_service_log = false;
  return options;
}

// Sums of every counter the per-layer metrics difference over the timed phase.
struct Totals {
  int64_t events = 0;
  int64_t datagrams = 0;
  int64_t nacks = 0;
  int64_t replays = 0;
  int64_t busy_ns = 0;
  int64_t dropped = 0;
  int64_t rejected = 0;
  int64_t cscs_hits = 0;
  int64_t commands = 0;
  int64_t wire_bytes = 0;
  int64_t raw_bytes = 0;
  int64_t display_bytes = 0;
  int64_t chunk_bytes = 0;
  int64_t rounds = 0;
  int64_t retries = 0;
};

struct Parts {
  slim::Simulator* sim = nullptr;
  Fabric* fabric = nullptr;
  std::vector<SlimServer*> servers;
  std::vector<Console*> consoles;
  std::vector<const ServerSession*> sessions;
};

Totals Sum(const Parts& p) {
  Totals t;
  t.events = static_cast<int64_t>(p.sim->events_executed());
  for (SlimServer* server : p.servers) {
    t.datagrams += p.fabric->uplink_stats(server->node()).datagrams_sent;
    t.nacks += server->endpoint().stats().nacks_sent;
    t.replays += server->endpoint().stats().replays_sent;
    if (const MigrationManager* m = server->migration()) {
      t.chunk_bytes += m->stats().chunk_bytes_sent;
      t.rounds += m->stats().started + m->stats().rounds_sent;
      t.retries += m->stats().retries;
    }
  }
  for (Console* console : p.consoles) {
    t.datagrams += p.fabric->uplink_stats(console->node()).datagrams_sent;
    t.nacks += console->endpoint().stats().nacks_sent;
    t.replays += console->endpoint().stats().replays_sent;
    t.busy_ns += console->busy_time();
    t.dropped += console->commands_dropped();
    t.rejected += console->commands_rejected();
    t.cscs_hits += console->cscs_stream_hits();
  }
  for (const ServerSession* s : p.sessions) {
    t.display_bytes += s->bytes_sent();
    for (int type = 1; type < 6; ++type) {
      t.commands += s->encode_stats()[type].commands;
      t.wire_bytes += s->encode_stats()[type].wire_bytes;
      t.raw_bytes += s->encode_stats()[type].uncompressed_bytes;
    }
  }
  return t;
}

int64_t EncodedPixels(const ServerSession& s) {
  int64_t px = 0;
  for (int type = 1; type < 6; ++type) {
    px += s.encode_stats()[type].pixels;
  }
  return px;
}

// Fills the counts that are plain differences of Totals.
void Difference(const Totals& a, const Totals& b, RoundResult* r) {
  LayerCounts& c = r->counts;
  c.events = b.events - a.events;
  c.datagrams = b.datagrams - a.datagrams;
  c.nacks = b.nacks - a.nacks;
  c.replays = b.replays - a.replays;
  c.console_busy_ns = b.busy_ns - a.busy_ns;
  c.console_dropped = b.dropped - a.dropped;
  c.cscs_hits = b.cscs_hits - a.cscs_hits;
  c.commands = b.commands - a.commands;
  c.wire_bytes = b.wire_bytes - a.wire_bytes;
  c.raw_bytes = b.raw_bytes - a.raw_bytes;
  c.migration_chunk_bytes = b.chunk_bytes - a.chunk_bytes;
  c.migration_rounds = b.rounds - a.rounds;
  c.migration_retries = b.retries - a.retries;
  r->display_bytes = b.display_bytes - a.display_bytes;
  if (b.rejected != a.rejected) {
    r->ops_failed += b.rejected - a.rejected;
    r->Fail("console rejected " + std::to_string(b.rejected - a.rejected) + " commands");
  }
}

// The deadline an open-loop op's update has to meet to count as on time: the library's
// interactive budget (LatencyAuditOptions::slo, 150 ms), a default that reads no
// environment variable.
const SimDuration kBudget = slim::LatencyAuditOptions{}.slo;

// Collects per-op latencies from the ledger; an op whose update never arrived failed. An
// op is on time when its update landed within kBudget of its due time, or when it queued
// no update at all.
void CollectLatencies(const DisplayLedger& ledger, RoundResult* r) {
  int64_t unresolved = 0;
  for (const SimDuration ns : ledger.latency()) {
    if (ns == DisplayLedger::kUnresolved) {
      ++unresolved;
    } else {
      r->ops_on_time += ns <= kBudget ? 1 : 0;
      if (ns != DisplayLedger::kNoUpdate) {
        r->latency_ms.push_back(slim::ToMillis(ns));
      }
    }
  }
  if (unresolved > 0) {
    r->ops_failed += unresolved;
    r->Fail(std::to_string(unresolved) + " ops never saw their update applied");
  }
}

// ===========================================================================
// desktop: 8 users, two of each benchmark application, one shared server with the
// modeled CPU pipeline, one 1280x1024 console each, open-loop UserModel input.
// ===========================================================================

constexpr AppKind kDesktopApps[] = {AppKind::kPhotoshop,  AppKind::kPhotoshop,
                                    AppKind::kNetscape,   AppKind::kNetscape,
                                    AppKind::kFrameMaker, AppKind::kFrameMaker,
                                    AppKind::kPim,        AppKind::kPim};
constexpr int kDesktopUsers = 8;
constexpr int32_t kDesktopW = 1280;
constexpr int32_t kDesktopH = 1024;
// Simulated session length per user at scale 1: an hour, so that the heavy-tailed mix of
// cheap keystrokes and expensive clicks (Pareto think times, bursty users) averages out
// to within a few percent from one seed to the next.
constexpr double kDesktopSeconds = 3600.0;
// The Sun Ray 1 console reads its keyboard and mouse over USB 1.1, whose host controller
// schedules interrupt transfers in 1 ms frames; 1 ms is the shortest polling period the
// specification allows (USB 1.1 section 5.7.4, full-speed devices; low-speed devices may
// be polled at most every 10 ms). An input is injected at the first 1 ms frame at or after
// the user's press, and its latency counts from the press. The shortest period keeps
// libslim's own latency, not the poll, the larger part of the metric; without any poll
// every keystroke echo takes the same simulated time and the median reads the same for
// every seed.
constexpr SimDuration kInputPoll = slim::kMillisecond;

struct DesktopInput {
  SimTime at = 0;  // the press, from the UserModel schedule
  int user = 0;
  bool is_key = true;
  uint32_t keycode = 0;
  int32_t x = 0;
  int32_t y = 0;
};

class Desktop : public Workload {
 public:
  Desktop(uint64_t seed, double scale) : seed_(seed) {
    const auto horizon = static_cast<SimTime>(kDesktopSeconds * scale * slim::kSecond);
    for (int u = 0; u < kDesktopUsers; ++u) {
      slim::UserModel user(kDesktopApps[u], Rng(Rng::MixSeed(seed, u, 2)));
      Rng click(Rng::MixSeed(seed, u, 3));
      SimTime t = 0;
      for (;;) {
        const slim::UserModel::NextEvent e = user.Next();
        t += e.delay;
        if (t > horizon) {
          break;
        }
        DesktopInput in;
        in.at = t;
        in.user = u;
        in.is_key = e.is_key;
        in.keycode = e.keycode;
        if (!e.is_key) {
          in.x = static_cast<int32_t>(click.NextBelow(kDesktopW));
          in.y = static_cast<int32_t>(click.NextBelow(kDesktopH));
        }
        inputs_.push_back(in);
      }
    }
    std::stable_sort(inputs_.begin(), inputs_.end(),
                     [](const DesktopInput& a, const DesktopInput& b) { return a.at < b.at; });
  }

  std::string Describe() const override {
    uint64_t h = kFnvBasis;
    int64_t keys = 0;
    for (const DesktopInput& in : inputs_) {
      h = Fnv(Fnv(h, static_cast<uint64_t>(in.at)), in.keycode * 31u + in.user);
      keys += in.is_key ? 1 : 0;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "desktop: %d users, %zu inputs (%" PRId64 " keys), schedule %016" PRIx64,
                  kDesktopUsers, inputs_.size(), keys, h);
    return buf;
  }

  RoundResult Round(Probe* probe, SpanRecorder* spans, bool setup_only) override;
  // About 10% of desktop ops are expensive clicks and scrolls, so p90 falls in the gap
  // between the cheap and the expensive ops and swings with each seed's mix; p97.5 lies
  // inside the expensive cluster and has hundreds of samples beyond it.
  double TailPercentile() const override { return 0.975; }

 private:
  uint64_t seed_;
  std::vector<DesktopInput> inputs_;
};

struct DesktopWorld {
  explicit DesktopWorld(uint64_t seed) : fabric(&sim, slim::FabricOptions{}), ledger(kDesktopUsers) {
    slim::ServerOptions options;
    options.session_width = kDesktopW;
    options.session_height = kDesktopH;
    options.model_cpu_delay = true;
    server = std::make_unique<SlimServer>(&sim, &fabric, options);
    for (int u = 0; u < kDesktopUsers; ++u) {
      consoles.push_back(std::make_unique<Console>(&sim, &fabric, ConsoleFor(kDesktopW, kDesktopH)));
      const uint64_t card = server->auth().IssueCard(static_cast<uint32_t>(u + 1));
      ServerSession& session = server->CreateSession(card);
      sessions.push_back(&session);
      apps.push_back(slim::MakeApplication(kDesktopApps[u], &session, Rng::MixSeed(seed, u, 1)));
      injected.emplace_back();
      session.set_input_handler([this, u](const slim::Message& msg) { OnInput(u, msg); });
      consoles.back()->set_apply_callback(
          [this, u](const slim::ServiceRecord& rec) { ledger.OnApplied(u, rec.completion); });
      consoles.back()->InsertCard(server->node(), card);
    }
  }

  // The benchmark's equivalent of Application::BindInput: the same dispatch, with each
  // library call in its own span and the op's display commands handed to the ledger.
  void OnInput(int u, const slim::Message& msg) {
    const auto* key = std::get_if<slim::KeyEventMsg>(&msg.body);
    const auto* mouse = std::get_if<slim::MouseEventMsg>(&msg.body);
    const bool is_key = key != nullptr && key->pressed;
    const bool is_click = mouse != nullptr && !mouse->is_motion && mouse->buttons != 0;
    if ((!is_key && !is_click) || injected[u].empty()) {
      return;
    }
    const auto [op, due] = injected[u].front();
    injected[u].pop_front();
    ServerSession& session = *sessions[u];
    const int64_t before = session.commands_sent();
    if (is_key) {
      Scoped s(spans, Call::kOnKey);
      apps[u]->OnKey(key->keycode);
    } else {
      Scoped s(spans, Call::kOnClick);
      apps[u]->OnClick(mouse->x, mouse->y);
    }
    damaged_px += session.pending_damage().area();
    const int64_t encoded_before = EncodedPixels(session);
    {
      Scoped s(spans, Call::kFlush);
      session.Flush();
    }
    encoded_px += EncodedPixels(session) - encoded_before;
    txq_max_depth = std::max(txq_max_depth, server->tx_queue().total_depth());
    ledger.Expect(u, before, session.commands_sent(), due, op);
  }

  Parts parts() {
    Parts p{&sim, &fabric, {server.get()}, {}, {}};
    for (auto& c : consoles) {
      p.consoles.push_back(c.get());
    }
    p.sessions.assign(sessions.begin(), sessions.end());
    return p;
  }

  slim::Simulator sim;
  Fabric fabric;
  std::unique_ptr<SlimServer> server;
  std::vector<std::unique_ptr<Console>> consoles;
  std::vector<ServerSession*> sessions;
  std::vector<std::unique_ptr<slim::Application>> apps;
  // Ops injected at each user's console whose input has not reached the server yet
  // (the healthy fabric delivers each console's input in order).
  std::vector<std::deque<std::pair<int64_t, SimTime>>> injected;
  DisplayLedger ledger;
  SpanRecorder off;  // setup is never traced
  SpanRecorder* spans = &off;
  int64_t damaged_px = 0;
  int64_t encoded_px = 0;
  int64_t txq_max_depth = 0;
};

RoundResult Desktop::Round(Probe* probe, SpanRecorder* spans, bool setup_only) {
  RoundResult r;
  probe->MaybeRun();
  const int64_t setup_start = HostNs();
  auto world = std::make_unique<DesktopWorld>(seed_);
  DesktopWorld& w = *world;
  w.sim.Run();  // attach handshakes and blank repaints
  for (auto& app : w.apps) {
    app->Start();
  }
  w.sim.Run();  // initial paints reach the consoles
  for (int u = 0; u < kDesktopUsers; ++u) {
    w.ledger.Sync(u, w.sessions[u]->commands_sent());
  }
  r.setup_ns = HostNs() - setup_start;
  if (setup_only) {
    return r;
  }

  w.spans = spans;
  w.ledger.Reserve(inputs_.size());
  const Parts parts = w.parts();
  const Totals before = Sum(parts);
  const SimTime origin = w.sim.now();
  OpClock clock(probe);
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const DesktopInput& in = inputs_[i];
    {
      Scoped s(spans, Call::kRunUntil);
      w.sim.RunUntil(origin + (in.at + kInputPoll - 1) / kInputPoll * kInputPoll);
    }
    clock.Boundary();
    spans->set_op(static_cast<int64_t>(i));
    w.injected[in.user].emplace_back(static_cast<int64_t>(i), origin + in.at);
    Console& console = *w.consoles[in.user];
    const uint32_t session_id = w.sessions[in.user]->id();
    if (in.is_key) {
      Scoped s(spans, Call::kSendKey);
      console.SendKey(w.server->node(), session_id, in.keycode, /*pressed=*/true);
    } else {
      Scoped s(spans, Call::kSendMouse);
      console.SendMouse(w.server->node(), session_id, in.x, in.y, /*buttons=*/1,
                        /*is_motion=*/false);
    }
  }
  {
    Scoped s(spans, Call::kRun);
    w.sim.Run();  // drain: every op's update and deferred paint lands
  }
  clock.End();
  spans->set_op(-1);
  w.spans = &w.off;

  r.op_ns = clock.op_ns();
  r.ops = static_cast<int64_t>(inputs_.size());
  r.timed_sim = inputs_.empty() ? 0 : w.sim.now() - (origin + inputs_.front().at);
  Difference(before, Sum(parts), &r);
  r.counts.damaged_px = w.damaged_px;
  r.counts.encoded_px = w.encoded_px;
  r.counts.txq_max_depth = w.txq_max_depth;
  r.counts.consoles = kDesktopUsers;
  CollectLatencies(w.ledger, &r);
  // The core invariant, checked after the final quiescence: every console shows exactly
  // its session's framebuffer.
  for (int u = 0; u < kDesktopUsers; ++u) {
    if (!SamePixels(w.sessions[u]->framebuffer(), w.consoles[u]->framebuffer())) {
      ++r.ops_failed;
      r.Fail("console " + std::to_string(u) + " framebuffer differs from its session");
    }
  }
  return r;
}

// ===========================================================================
// video: two CSCS streams, each to its own console, played as bench_sec7_multimedia
// plays them: MPEG-II 720x480 at 6 bpp unscaled, and NTSC 640x240 fields at 8 bpp
// upscaled to 640x480.
// ===========================================================================

constexpr int kVideoStreams = 2;
// The sources present a frame every 1/30 s: the MPEG clip's native rate and the capture
// rate bench_sec7_multimedia gives its MediaPipelines.
constexpr SimDuration kFramePeriod = slim::kSecond / 30;
// Frame slots per stream at scale 1 (5 s of video).
constexpr int kVideoSlots = 150;

struct VideoFrameDue {
  SimTime due = 0;  // presentation slot
  SimTime at = 0;   // handed to SendVideoFrame
  int stream = 0;
  int index = 0;
};

struct StreamSpec {
  int32_t src_w;
  int32_t src_h;  // source frame height; NTSC fields are half of it
  bool fields;
  slim::CscsDepth depth;
  slim::Rect dst;
};

constexpr StreamSpec kStreams[kVideoStreams] = {
    {720, 480, false, slim::CscsDepth::k6, slim::Rect{40, 40, 720, 480}},
    {640, 480, true, slim::CscsDepth::k8, slim::Rect{40, 40, 640, 480}},
};

// Server CPU time a stream's player spends on one frame before handing it to
// SendVideoFrame: VideoCpuModel's decode cost, as bench_sec7_multimedia charges it, plus
// the transmit cost of the CSCS payload, as MediaPipeline adds it. About 49.2 ms for an
// MPEG frame and 52.2 ms for a JPEG field.
SimDuration PlayerCost(const StreamSpec& spec) {
  const slim::VideoCpuModel cpu;
  const int32_t h = spec.fields ? spec.src_h / 2 : spec.src_h;
  const int64_t pixels = static_cast<int64_t>(spec.src_w) * h;
  const SimDuration decode =
      spec.fields ? cpu.JpegFieldCost(pixels) : cpu.MpegFrameCost(pixels, pixels);
  const auto payload = static_cast<int64_t>(slim::CscsPayloadBytes(spec.src_w, h, spec.depth));
  return decode + cpu.SendCost(payload);
}

class Video : public Workload {
 public:
  // Each stream's player runs on a CPU of its own and is paced as MediaPipeline::Tick paces
  // it: it produces the frame of the current slot, or, when it is late, of the newest slot
  // whose time has passed, skipping the ones in between, and the frame reaches
  // SendVideoFrame PlayerCost later. Neither player keeps up with 30 Hz, so both produce
  // back to back, at 20.3 Hz (MPEG) and 19.2 Hz (NTSC): the rates of Sections 7.1-7.2. A
  // frame's latency counts from its slot, so it includes how stale the frame was when the
  // player took it. The two players' periods differ, so their sends drift against each
  // other and the streams' contention for the server's link takes every relative phase
  // within one round. The seed draws each stream's start within the first slot.
  Video(uint64_t seed, double scale) : seed_(seed) {
    const int slots = std::max(1, static_cast<int>(kVideoSlots * scale));
    Rng rng(Rng::MixSeed(seed, 11));
    for (int s = 0; s < kVideoStreams; ++s) {
      const SimDuration cost = PlayerCost(kStreams[s]);
      const SimTime start = rng.NextInRange(0, kFramePeriod - 1);
      SimTime free = start;
      for (int f = 0; f < slots;) {
        const SimTime due = start + f * kFramePeriod;
        free = std::max(due, free) + cost;
        frames_.push_back(VideoFrameDue{due, free, s, f});
        f = std::max<int>(f + 1, static_cast<int>((free - start) / kFramePeriod));
      }
    }
    std::stable_sort(frames_.begin(), frames_.end(),
                     [](const VideoFrameDue& a, const VideoFrameDue& b) { return a.at < b.at; });
    first_due_ = std::min_element(frames_.begin(), frames_.end(),
                                  [](const VideoFrameDue& a, const VideoFrameDue& b) {
                                    return a.due < b.due;
                                  })->due;
  }

  std::string Describe() const override {
    uint64_t h = kFnvBasis;
    for (const VideoFrameDue& f : frames_) {
      h = Fnv(Fnv(h, static_cast<uint64_t>(f.at)), static_cast<uint64_t>(f.stream));
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "video: %d streams, %zu frames, schedule %016" PRIx64,
                  kVideoStreams, frames_.size(), h);
    return buf;
  }

  RoundResult Round(Probe* probe, SpanRecorder* spans, bool setup_only) override;

 private:
  uint64_t seed_;
  std::vector<VideoFrameDue> frames_;
  SimTime first_due_ = 0;  // the earliest slot of either stream
};

struct VideoWorld {
  explicit VideoWorld(uint64_t seed) : fabric(&sim, slim::FabricOptions{}), ledger(kVideoStreams) {
    server = std::make_unique<SlimServer>(&sim, &fabric, slim::ServerOptions{});
    const slim::ServerOptions& options = server->options();
    for (int s = 0; s < kVideoStreams; ++s) {
      consoles.push_back(std::make_unique<Console>(
          &sim, &fabric, ConsoleFor(options.session_width, options.session_height)));
      const uint64_t card = server->auth().IssueCard(static_cast<uint32_t>(s + 1));
      sessions.push_back(&server->CreateSession(card));
      sources.emplace_back(kStreams[s].src_w, kStreams[s].src_h, Rng::MixSeed(seed, s, 12));
      consoles.back()->set_apply_callback([this, s](const slim::ServiceRecord& rec) {
        cscs_applied += rec.type == slim::CommandType::kCscs ? 1 : 0;
        ledger.OnApplied(s, rec.completion);
      });
      consoles.back()->InsertCard(server->node(), card);
    }
  }

  Parts parts() {
    Parts p{&sim, &fabric, {server.get()}, {}, {}};
    for (auto& c : consoles) {
      p.consoles.push_back(c.get());
    }
    p.sessions.assign(sessions.begin(), sessions.end());
    return p;
  }

  slim::Simulator sim;
  Fabric fabric;
  std::unique_ptr<SlimServer> server;
  std::vector<std::unique_ptr<Console>> consoles;
  std::vector<ServerSession*> sessions;
  std::vector<slim::SyntheticVideoSource> sources;
  DisplayLedger ledger;
  int64_t cscs_applied = 0;
};

RoundResult Video::Round(Probe* probe, SpanRecorder* spans, bool setup_only) {
  RoundResult r;
  probe->MaybeRun();
  const int64_t setup_start = HostNs();
  auto world = std::make_unique<VideoWorld>(seed_);
  VideoWorld& w = *world;
  w.sim.Run();  // attach handshakes and blank repaints
  // One warm-up frame per stream (an index the timed phase never uses): the console's
  // stream cache and every buffer on the path are warm when timing starts, and set-up
  // time then rests on the same per-pixel work as the ops, which the probe tracks.
  for (int s = 0; s < kVideoStreams; ++s) {
    const StreamSpec& spec = kStreams[s];
    const slim::SyntheticVideoSource& source = w.sources[s];
    const int warm = kVideoSlots + 1;
    w.sessions[s]->SendVideoFrame(spec.fields ? source.Field(warm, false) : source.Frame(warm),
                                  spec.dst, spec.depth);
  }
  w.sim.Run();
  for (int s = 0; s < kVideoStreams; ++s) {
    w.ledger.Sync(s, w.sessions[s]->commands_sent());
  }
  r.setup_ns = HostNs() - setup_start;
  if (setup_only) {
    return r;
  }

  w.ledger.Reserve(frames_.size());
  const Parts parts = w.parts();
  const Totals before = Sum(parts);
  const int64_t cscs_before = w.cscs_applied;
  int64_t txq_max_depth = 0;
  const SimTime origin = w.sim.now();
  OpClock clock(probe);
  for (size_t i = 0; i < frames_.size(); ++i) {
    const VideoFrameDue& due = frames_[i];
    const StreamSpec& spec = kStreams[due.stream];
    {
      Scoped s(spans, Call::kRunUntil);
      w.sim.RunUntil(origin + due.at);
    }
    clock.Boundary();
    spans->set_op(static_cast<int64_t>(i));
    const slim::SyntheticVideoSource& source = w.sources[due.stream];
    std::optional<slim::YuvImage> frame;
    if (spec.fields) {
      Scoped s(spans, Call::kField);
      frame.emplace(source.Field(due.index, due.index % 2 == 1));
    } else {
      Scoped s(spans, Call::kFrame);
      frame.emplace(source.Frame(due.index));
    }
    ServerSession& session = *w.sessions[due.stream];
    const int64_t sent_before = session.commands_sent();
    {
      Scoped s(spans, Call::kSendVideoFrame);
      session.SendVideoFrame(*frame, spec.dst, spec.depth);
    }
    txq_max_depth = std::max(txq_max_depth, w.server->tx_queue().total_depth());
    w.ledger.Expect(due.stream, sent_before, session.commands_sent(), origin + due.due,
                    static_cast<int64_t>(i));
  }
  {
    Scoped s(spans, Call::kRun);
    w.sim.Run();
  }
  clock.End();
  spans->set_op(-1);

  r.op_ns = clock.op_ns();
  r.ops = static_cast<int64_t>(frames_.size());
  r.timed_sim = w.sim.now() - (origin + first_due_);
  Difference(before, Sum(parts), &r);
  r.counts.txq_max_depth = txq_max_depth;
  r.counts.cscs_applied = w.cscs_applied - cscs_before;
  r.counts.consoles = kVideoStreams;
  CollectLatencies(w.ledger, &r);
  for (int s = 0; s < kVideoStreams; ++s) {
    if (!SamePixels(w.sessions[s]->framebuffer(), w.consoles[s]->framebuffer())) {
      ++r.ops_failed;
      r.Fail("video console " + std::to_string(s) + " framebuffer differs from its session");
    }
  }
  return r;
}

// ===========================================================================
// roaming: a two-server pool, one console homed on each; one 640x480 browser session
// hot-desks between them over a fabric with 1% loss and 1 ms jitter on every path. An op
// is one cross-server move; the user types 5 keys at each console before moving on.
// ===========================================================================

constexpr int32_t kRoamW = 640;
constexpr int32_t kRoamH = 480;
// Moves per round at scale 1. About 7% of moves lose a trailing message and need a second
// repaint, so p90 sits near that knee; 400 moves keep each seed's share of them within
// about a percent.
constexpr int kRoamMoves = 400;
constexpr int kKeysPerMove = 5;
// The page the session shows is part of the world, not of the inputs: it is the same for
// every seed. A full repaint of a photo-heavy page costs half again the bytes of a
// text-heavy one, and every move of a round repaints the same page, so a seeded page
// would make each seed's repaint cost one draw instead of an average.
constexpr uint64_t kRoamPageSeed = 0x5e55;
constexpr SimDuration kRoamStep = 5 * slim::kMillisecond;
// The user's remedies, as in bench_migration: a dark screen gets the card re-tapped every
// 100 ms. A screen or an echo that stops changing before it is right gets the card
// re-tapped, or the key pressed again, after 300 ms. Nothing else would expose a lost
// trailing message to the receiver's NACK logic, since the loop waits for each result.
constexpr SimDuration kRetapEvery = 100 * slim::kMillisecond;
constexpr SimDuration kStall = 300 * slim::kMillisecond;
constexpr SimDuration kMoveDeadline = 30 * slim::kSecond;
constexpr SimDuration kKeyDeadline = 5 * slim::kSecond;

struct RoamKey {
  SimDuration think = 0;  // pause before the key, after the previous update landed
  uint32_t keycode = 0;
};

class Roaming : public Workload {
 public:
  Roaming(uint64_t seed, double scale) : seed_(seed) {
    moves_ = std::max(1, static_cast<int>(kRoamMoves * scale));
    Rng rng(Rng::MixSeed(seed, 21));
    for (int i = 0; i < moves_ * kKeysPerMove; ++i) {
      RoamKey key;
      key.think = static_cast<SimDuration>(rng.NextInRange(100, 300)) * slim::kMillisecond;
      // Location-bar typing: BrowserApp draws one glyph for keycodes not divisible by 6
      // (a multiple of 6 scrolls, whose progressive image slices would outlive the move).
      do {
        key.keycode = static_cast<uint32_t>(rng.NextBelow(997));
      } while (key.keycode % 6 == 0);
      keys_.push_back(key);
    }
  }

  std::string Describe() const override {
    uint64_t h = Fnv(kFnvBasis, Rng::MixSeed(seed_, 7));
    for (const RoamKey& k : keys_) {
      h = Fnv(Fnv(h, static_cast<uint64_t>(k.think)), k.keycode);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "roaming: %d moves, %zu keys, fault seed + schedule %016" PRIx64, moves_,
                  keys_.size(), h);
    return buf;
  }

  RoundResult Round(Probe* probe, SpanRecorder* spans, bool setup_only) override;

 private:
  uint64_t seed_;
  int moves_ = 0;
  std::vector<RoamKey> keys_;
};

struct RoamWorld {
  explicit RoamWorld(uint64_t seed) : fabric(&sim, FabricOptionsFor(seed)) {
    slim::ServerOptions options;
    options.session_width = kRoamW;
    options.session_height = kRoamH;
    for (int i = 0; i < 2; ++i) {
      servers.push_back(std::make_unique<SlimServer>(&sim, &fabric, options));
      managers.push_back(&servers.back()->EnableMigration(pool, slim::MigrationOptions{}));
    }
    for (int i = 0; i < 2; ++i) {
      consoles.push_back(std::make_unique<Console>(&sim, &fabric, ConsoleFor(kRoamW, kRoamH)));
      consoles.back()->set_apply_callback([this, i](const slim::ServiceRecord& rec) {
        dirty[i] = true;
        last_apply[i] = rec.completion;
      });
    }
    card = pool.IssueCard(1);
  }

  static slim::FabricOptions FabricOptionsFor(uint64_t seed) {
    slim::FabricOptions options;
    options.fault_seed = Rng::MixSeed(seed, 7);
    return options;
  }

  // The session for the card if it is live at console `c` (attached to it, on the
  // console's home server).
  ServerSession* LiveAt(int c) {
    ServerSession* s = servers[c]->SessionForCard(card);
    return s != nullptr && s->attached() && s->console() == consoles[c]->node() ? s : nullptr;
  }

  // The session for the card wherever it lives (null if the pool lost it).
  ServerSession* Owned() {
    for (const auto& server : servers) {
      if (ServerSession* s = server->SessionForCard(card)) {
        return s;
      }
    }
    return nullptr;
  }

  // Binds a fresh BrowserApp instance to `session`. After a move the session is a new
  // object on another server, and the previous one was discarded at commit.
  void BindApp(ServerSession* session) {
    app = slim::MakeApplication(AppKind::kNetscape, session, kRoamPageSeed);
    session->set_input_handler([this, session](const slim::Message& msg) {
      const auto* key = std::get_if<slim::KeyEventMsg>(&msg.body);
      if (key == nullptr || !key->pressed) {
        return;
      }
      const int64_t sent_before = session->commands_sent();
      {
        Scoped s(spans, Call::kOnKey);
        app->OnKey(key->keycode);
      }
      damaged_px += session->pending_damage().area();
      const int64_t encoded_before = EncodedPixels(*session);
      {
        Scoped s(spans, Call::kFlush);
        session->Flush();
      }
      encoded_px += EncodedPixels(*session) - encoded_before;
      last_key_sent = session->commands_sent() - sent_before;
      ++handled;
    });
  }

  // True once the session is live at console `c` and the console shows exactly its
  // pixels; compares only after the console applied something since the last look.
  bool Converged(int c) {
    ServerSession* s = LiveAt(c);
    if (!dirty[c] || s == nullptr) {
      return false;
    }
    dirty[c] = false;
    Scoped span(spans, Call::kComparePixels);
    return SamePixels(s->framebuffer(), consoles[c]->framebuffer());
  }

  // The session object changes with every move, but checkpoints carry its counters, so
  // differencing the live session's counters covers every server it visited.
  Parts parts(const ServerSession* session) {
    return Parts{&sim, &fabric, {servers[0].get(), servers[1].get()},
                 {consoles[0].get(), consoles[1].get()}, {session}};
  }

  void Step() {
    Scoped s(spans, Call::kRunFor);
    sim.RunFor(kRoamStep);
  }

  // Inserts the card at console `dest` and runs until the session is live there with
  // identical pixels. Returns false past kMoveDeadline; on success *latency is insert to
  // the last pixel applied.
  bool Hotdesk(int dest, SimDuration* latency) {
    Console& console = *consoles[dest];
    SlimServer& home = *servers[dest];
    const auto tap = [&] {
      Scoped s(spans, Call::kInsertCard);
      console.InsertCard(home.node(), card);
    };
    tap();
    const SimTime inserted = sim.now();
    SimTime tapped = inserted;
    dirty[dest] = false;
    while (sim.now() - inserted < kMoveDeadline) {
      Step();
      for (const auto& server : servers) {
        txq_max_depth = std::max(txq_max_depth, server->tx_queue().total_depth());
      }
      if (Converged(dest)) {
        *latency = last_apply[dest] - inserted;
        return true;
      }
      const SimTime now = sim.now();
      const bool dark = LiveAt(dest) == nullptr;
      if ((dark && now - tapped >= kRetapEvery) ||
          (!dark && now - std::max(tapped, last_apply[dest]) >= kStall)) {
        tap();
        tapped = now;
        ++retaps;
      }
    }
    return false;
  }

  slim::Simulator sim;
  Fabric fabric;
  slim::ServerPool pool;
  std::vector<std::unique_ptr<SlimServer>> servers;
  std::vector<MigrationManager*> managers;
  std::vector<std::unique_ptr<Console>> consoles;
  std::unique_ptr<slim::Application> app;
  uint64_t card = 0;
  bool dirty[2] = {false, false};
  SimTime last_apply[2] = {0, 0};
  int64_t handled = 0;
  int64_t last_key_sent = 0;  // display commands the last handled key queued
  int64_t damaged_px = 0;
  int64_t encoded_px = 0;
  int64_t retaps = 0;
  int64_t txq_max_depth = 0;  // sampled after every step of a move
  SpanRecorder off;  // setup is never traced
  SpanRecorder* spans = &off;
};

RoundResult Roaming::Round(Probe* probe, SpanRecorder* spans, bool setup_only) {
  RoundResult r;
  probe->MaybeRun();
  const int64_t setup_start = HostNs();
  auto world = std::make_unique<RoamWorld>(seed_);
  RoamWorld& w = *world;
  w.consoles[0]->InsertCard(w.servers[0]->node(), w.card);
  w.sim.Run();
  ServerSession* session = w.LiveAt(0);
  if (session == nullptr) {
    r.Fail("roaming: the session never attached at its first console");
    return r;
  }
  w.BindApp(session);
  w.app->Start();
  w.sim.Run();  // the page and its progressive image strips
  if (!SamePixels(session->framebuffer(), w.consoles[0]->framebuffer())) {
    r.Fail("roaming: initial paint did not converge");
    return r;
  }
  slim::FaultProfile faults;
  faults.loss = 0.01;
  faults.delay_jitter = slim::Milliseconds(1);
  w.fabric.InjectFaults(faults);
  // One warm-up hotdesk to the second console: both servers have migrated the session
  // once when timing starts, and set-up time then rests on the same work as the ops,
  // which the probe tracks (the bare world build is 3-4 ms and swung 2.6 to 4.2 ms
  // between runs).
  SimDuration warm_latency = 0;
  if (!w.Hotdesk(1, &warm_latency)) {
    r.Fail("roaming: the warm-up move did not converge");
    return r;
  }
  session = w.LiveAt(1);
  w.BindApp(session);
  r.setup_ns = HostNs() - setup_start;
  if (setup_only) {
    return r;
  }

  w.spans = spans;
  w.retaps = 0;
  w.txq_max_depth = 0;
  const Totals before = Sum(w.parts(session));
  std::vector<double> blackout_ms;
  std::vector<double> key_ms;
  int64_t represses = 0;
  const SimTime origin = w.sim.now();
  OpClock clock(probe);
  int at = 1;  // console currently showing the session
  size_t next_key = 0;
  for (int m = 0; m < moves_; ++m) {
    const int dest = 1 - at;
    Console& console = *w.consoles[dest];
    SlimServer& home = *w.servers[dest];
    clock.Boundary();
    spans->set_op(m);
    ++r.ops;
    SimDuration latency = 0;
    if (!w.Hotdesk(dest, &latency)) {
      ++r.ops_failed;
      r.Fail("roaming: move " + std::to_string(m) + " did not converge");
      break;
    }
    r.latency_ms.push_back(slim::ToMillis(latency));
    blackout_ms.push_back(slim::ToMillis(w.managers[dest]->stats().blackout_last_ns));
    at = dest;
    session = w.LiveAt(at);
    w.BindApp(session);

    bool typed = true;
    for (int k = 0; k < kKeysPerMove && typed; ++k) {
      const RoamKey& key = keys_[next_key++];
      {
        Scoped s(spans, Call::kRunFor);
        w.sim.RunFor(key.think);
      }
      const int64_t handled_before = w.handled;
      const auto press = [&] {
        Scoped s(spans, Call::kSendKey);
        console.SendKey(home.node(), session->id(), key.keycode, /*pressed=*/true);
      };
      press();
      const SimTime pressed = w.sim.now();
      SimTime last_press = pressed;
      w.dirty[at] = false;
      typed = false;
      // A key whose glyph repeats what the field already shows changes no pixel and
      // queues nothing; it is done once handled.
      while (!typed && w.sim.now() - pressed < kKeyDeadline) {
        w.Step();
        typed = w.handled > handled_before && (w.last_key_sent == 0 || w.Converged(at));
        if (!typed && w.sim.now() - std::max(last_press, w.last_apply[at]) >= kStall) {
          press();
          last_press = w.sim.now();
          ++represses;
        }
      }
      if (typed && w.last_key_sent > 0) {
        key_ms.push_back(slim::ToMillis(w.last_apply[at] - pressed));
      }
    }
    if (!typed) {
      ++r.ops_failed;
      r.Fail("roaming: a key typed after move " + std::to_string(m) + " never landed");
      break;
    }
    ++r.ops_on_time;
  }
  clock.End();
  spans->set_op(-1);
  w.spans = &w.off;

  r.op_ns = clock.op_ns();
  r.timed_sim = w.sim.now() - origin;
  // After a failed move `session` may have been discarded; count from the live copy.
  if (const ServerSession* owned = w.Owned()) {
    Difference(before, Sum(w.parts(owned)), &r);
  }
  r.counts.damaged_px = w.damaged_px;
  r.counts.encoded_px = w.encoded_px;
  r.counts.txq_max_depth = w.txq_max_depth;
  r.counts.consoles = 2;
  r.notes.emplace_back("migration.blackout_sim_ms_p50", Median(blackout_ms));
  if (const auto v = Percentile(key_ms, 0.5)) {
    r.notes.emplace_back("roaming.key_latency_sim_ms_p50", *v);
  }
  if (const auto v = Percentile(key_ms, 0.9)) {
    r.notes.emplace_back("roaming.key_latency_sim_ms_p90", *v);
  }
  r.notes.emplace_back("roaming.keys", static_cast<double>(key_ms.size()));
  r.notes.emplace_back("roaming.card_retaps", static_cast<double>(w.retaps));
  r.notes.emplace_back("roaming.key_represses", static_cast<double>(represses));
  return r;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, double scale) {
  if (name == "desktop") {
    return std::make_unique<Desktop>(seed, scale);
  }
  if (name == "video") {
    return std::make_unique<Video>(seed, scale);
  }
  if (name == "roaming") {
    return std::make_unique<Roaming>(seed, scale);
  }
  return nullptr;
}

}  // namespace perfbench
