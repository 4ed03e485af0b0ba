// Tests for the observability layer: the JSON model, the metrics registry (and the
// migration of the legacy stats structs onto it), the sim-time tracer, and the BENCH
// report writer/validator pair, plus the harnesses' env parsing (EnvInt in
// bench/bench_util.h).

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <variant>

#include "bench/bench_util.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/net/transport.h"
#include "src/obs/bench_report.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"

namespace slim {
namespace {

// ---------------------------------------------------------------- JSON model

TEST(JsonTest, RoundTripsNestedDocument) {
  JsonObject inner;
  inner.emplace_back("pi", JsonValue(3.25));
  inner.emplace_back("n", JsonValue(int64_t{-42}));
  JsonObject doc;
  doc.emplace_back("name", JsonValue("quote\"and\\slash\n"));
  doc.emplace_back("flag", JsonValue(true));
  doc.emplace_back("nothing", JsonValue(nullptr));
  doc.emplace_back("list", JsonValue(JsonArray{JsonValue(int64_t{1}), JsonValue("two")}));
  doc.emplace_back("inner", JsonValue(std::move(inner)));

  const std::string text = JsonValue(doc).Dump();
  std::string error;
  const auto parsed = JsonParse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("name")->as_string(), "quote\"and\\slash\n");
  EXPECT_TRUE(parsed->Find("flag")->as_bool());
  EXPECT_TRUE(parsed->Find("nothing")->is_null());
  ASSERT_EQ(parsed->Find("list")->as_array().size(), 2u);
  EXPECT_EQ(parsed->Find("list")->as_array()[0].as_int(), 1);
  EXPECT_EQ(parsed->Find("inner")->Find("n")->as_int(), -42);
  EXPECT_DOUBLE_EQ(parsed->Find("inner")->Find("pi")->as_double(), 3.25);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
                          "{\"a\":1,}"}) {
    std::string error;
    EXPECT_FALSE(JsonParse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// The parser recurses once per level, so hostile nesting must end in an error, not in a
// stack overflow; a report's few levels stay far below the cap.
TEST(JsonTest, ParserRejectsHostileNestingDepth) {
  std::string error;
  EXPECT_FALSE(JsonParse(std::string(1'000'000, '['), &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  const std::string deep = std::string(512, '[') + std::string(512, ']');
  EXPECT_TRUE(JsonParse(deep).has_value());
  EXPECT_FALSE(JsonParse("[" + deep + "]").has_value());
}

TEST(JsonTest, IntegersSurviveExactly) {
  const int64_t big = 9007199254740993;  // 2^53 + 1: breaks if routed through a double
  const std::string text = JsonValue(big).Dump();
  const auto parsed = JsonParse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_int(), big);
}

// ---------------------------------------------------------- metrics registry

TEST(MetricNameTest, EnforcesDotScopedLowercase) {
  EXPECT_TRUE(IsValidMetricName("transport.nacks_sent"));
  EXPECT_TRUE(IsValidMetricName("fabric.fault.datagrams_corrupted"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("nodots"));
  EXPECT_FALSE(IsValidMetricName("Upper.case"));
  EXPECT_FALSE(IsValidMetricName("spa ce.x"));
}

TEST(MetricRegistryTest, BindsCountersAndReadsThroughPointer) {
  MetricRegistry registry;
  int64_t cell = 7;
  ASSERT_TRUE(registry.BindCounter("test.cell", &cell));
  EXPECT_TRUE(registry.Contains("test.cell"));
  cell += 5;  // the hot path keeps bumping the struct field directly
  EXPECT_EQ(registry.CounterValue("test.cell"), 12);
}

TEST(MetricRegistryTest, RejectsDuplicateAndInvalidNames) {
  MetricRegistry registry;
  int64_t a = 0;
  int64_t b = 0;
  ASSERT_TRUE(registry.BindCounter("dup.name", &a));
  EXPECT_FALSE(registry.BindCounter("dup.name", &b));  // duplicate: first wins
  a = 3;
  EXPECT_EQ(registry.CounterValue("dup.name"), 3);
  EXPECT_FALSE(registry.BindCounter("NotValid", &b));
  EXPECT_EQ(registry.Counter("dup.name"), nullptr);
  EXPECT_EQ(registry.Histogram("dup.name"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricRegistryTest, SnapshotJsonRoundTrips) {
  MetricRegistry registry;
  int64_t* owned = registry.Counter("owned.counter");
  ASSERT_NE(owned, nullptr);
  *owned = 99;
  ASSERT_TRUE(registry.BindGauge("some.gauge", [] { return 2.5; }));
  ExpHistogram* hist = registry.Histogram("some.latency_ns");
  ASSERT_NE(hist, nullptr);
  hist->Record(100);
  hist->Record(200);

  std::string error;
  const auto parsed = JsonParse(registry.SnapshotJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("counters")->Find("owned.counter")->as_int(), 99);
  EXPECT_DOUBLE_EQ(parsed->Find("gauges")->Find("some.gauge")->as_double(), 2.5);
  const JsonValue* h = parsed->Find("histograms")->Find("some.latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->as_int(), 2);
  EXPECT_EQ(h->Find("sum")->as_int(), 300);
  EXPECT_EQ(h->Find("min")->as_int(), 100);
  EXPECT_EQ(h->Find("max")->as_int(), 200);
}

TEST(ExpHistogramTest, TracksExactStatsAndQuantizedPercentiles) {
  ExpHistogram hist;
  for (int64_t v : {1, 2, 3, 1000}) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.count(), 4);
  EXPECT_EQ(hist.sum(), 1006);
  EXPECT_EQ(hist.min(), 1);
  EXPECT_EQ(hist.max(), 1000);
  EXPECT_DOUBLE_EQ(hist.mean(), 251.5);
  // p50 lands in the bucket holding 2-3; p100's bucket upper bound covers 1000.
  EXPECT_LT(hist.PercentileUpperBound(0.5), 8);
  EXPECT_GE(hist.PercentileUpperBound(1.0), 1000);
}

// ------------------------------------------------------------------- tracer

TEST(TracerTest, EmitsValidSortedBalancedJson) {
  Tracer tracer;
  tracer.SetThreadName(kTraceTidServer, "server");
  tracer.Begin(2000, "outer", "server", kTraceTidServer);
  tracer.Begin(2500, "inner", "server", kTraceTidServer);
  EXPECT_EQ(tracer.open_spans(), 2u);
  tracer.End(3000, kTraceTidServer);
  tracer.End(4000, kTraceTidServer);
  tracer.Instant(1000, "early", "input", kTraceTidInput);  // recorded late, sorts first
  tracer.Complete(1500, 250, "work", "console", kTraceTidConsole);
  EXPECT_EQ(tracer.open_spans(), 0u);

  std::string error;
  const auto parsed = JsonParse(tracer.Json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->is_array());
  const JsonArray& events = parsed->as_array();
  double last_ts = -1.0;
  int begins = 0;
  int ends = 0;
  bool seen_non_meta = false;
  for (const JsonValue& event : events) {
    const std::string& ph = event.Find("ph")->as_string();
    if (ph == "M") {
      EXPECT_FALSE(seen_non_meta) << "metadata must precede timed events";
      continue;
    }
    seen_non_meta = true;
    const double ts = event.Find("ts")->as_double();
    EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts;
    begins += ph == "B" ? 1 : 0;
    ends += ph == "E" ? 1 : 0;
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
}

TEST(TracerTest, UnbalancedEndIsDropped) {
  Tracer tracer;
  tracer.End(100, kTraceTidServer);  // no open span: must not emit an E
  tracer.Begin(200, "a", "server", kTraceTidServer);
  tracer.End(300, kTraceTidServer);
  const auto parsed = JsonParse(tracer.Json());
  ASSERT_TRUE(parsed.has_value());
  int ends = 0;
  for (const JsonValue& event : parsed->as_array()) {
    ends += event.Find("ph")->as_string() == "E" ? 1 : 0;
  }
  EXPECT_EQ(ends, 1);
}

TEST(TracerTest, AttachesCurrentInputIdToNestedEvents) {
  Tracer tracer;
  const int64_t id = tracer.NextInputId();
  tracer.set_current_input(id);
  tracer.Begin(100, "input.dispatch", "server", kTraceTidServer);
  tracer.Instant(150, "transport.send", "transport", kTraceTidTransportBase);
  tracer.End(200, kTraceTidServer);
  tracer.set_current_input(-1);
  tracer.Instant(300, "uncorrelated", "input", kTraceTidInput);

  const auto parsed = JsonParse(tracer.Json());
  ASSERT_TRUE(parsed.has_value());
  for (const JsonValue& event : parsed->as_array()) {
    const std::string& name = event.Find("name")->as_string();
    if (name == "input.dispatch" || name == "transport.send") {
      ASSERT_NE(event.Find("args"), nullptr) << name;
      ASSERT_NE(event.Find("args")->Find("input_id"), nullptr) << name;
      EXPECT_EQ(event.Find("args")->Find("input_id")->as_int(), id);
    } else if (name == "uncorrelated") {
      const JsonValue* args = event.Find("args");
      EXPECT_TRUE(args == nullptr || args->Find("input_id") == nullptr);
    }
  }
}

// ------------------------------------------------------------- EnvInt (bench)

TEST(EnvIntTest, ParsesValidAndFallsBackOnGarbage) {
  setenv("SLIM_TEST_KNOB", "17", 1);
  EXPECT_EQ(EnvInt("SLIM_TEST_KNOB", 5), 17);
  setenv("SLIM_TEST_KNOB", "banana", 1);
  EXPECT_EQ(EnvInt("SLIM_TEST_KNOB", 5), 5);
  setenv("SLIM_TEST_KNOB", "12abc", 1);  // trailing garbage: std::atoi would return 12
  EXPECT_EQ(EnvInt("SLIM_TEST_KNOB", 5), 5);
  setenv("SLIM_TEST_KNOB", "-3", 1);  // scale knobs are counts: non-positive is a mistake
  EXPECT_EQ(EnvInt("SLIM_TEST_KNOB", 5), 5);
  setenv("SLIM_TEST_KNOB", "0", 1);
  EXPECT_EQ(EnvInt("SLIM_TEST_KNOB", 5), 5);
  setenv("SLIM_TEST_KNOB", "99999999999999999999", 1);  // overflows long
  EXPECT_EQ(EnvInt("SLIM_TEST_KNOB", 5), 5);
  unsetenv("SLIM_TEST_KNOB");
  EXPECT_EQ(EnvInt("SLIM_TEST_KNOB", 5), 5);
}

// A harness report starts with an empty scale block, records each knob the harness reads
// through ScaleKnob with the value it used, and lands in SLIM_BENCH_DIR.
TEST(EnvIntTest, HarnessReportTakesScaleAndDirectoryFromTheEnvironment) {
  setenv("SLIM_USERS", "2", 1);
  setenv("SLIM_MINUTES", "banana", 1);
  unsetenv("SLIM_SECONDS");
  setenv("SLIM_BENCH_DIR", testing::TempDir().c_str(), 1);
  BenchReporter report = HarnessReport("unit_test", "scale");
  EXPECT_TRUE(report.Document().Find("scale")->as_object().empty());
  EXPECT_EQ(report.path(), testing::TempDir() + "/BENCH_unit_test.json");

  EXPECT_EQ(ScaleKnob(&report, "SLIM_USERS", 12), 2);
  EXPECT_EQ(ScaleKnob(&report, "SLIM_MINUTES", 5), 5);   // garbage: the fallback
  EXPECT_EQ(ScaleKnob(&report, "SLIM_SECONDS", 20), 20);  // unset: the fallback
  const JsonValue doc = report.Document();
  const JsonObject& scale = doc.Find("scale")->as_object();
  ASSERT_EQ(scale.size(), 3u);
  EXPECT_EQ(scale[0].first, "SLIM_USERS");
  EXPECT_EQ(scale[0].second.as_int(), 2);
  EXPECT_EQ(scale[1].first, "SLIM_MINUTES");
  EXPECT_EQ(scale[1].second.as_int(), 5);
  EXPECT_EQ(scale[2].first, "SLIM_SECONDS");
  EXPECT_EQ(scale[2].second.as_int(), 20);
  for (const char* name : {"SLIM_USERS", "SLIM_MINUTES", "SLIM_BENCH_DIR"}) {
    unsetenv(name);
  }
}

// ------------------------------------------------------------- bench report

TEST(BenchReportTest, DocumentPassesItsOwnValidator) {
  // The temp dir keeps the destructor's write out of the cwd.
  BenchReporter report("unit_test", "validator round trip", testing::TempDir(),
                       {{"SLIM_USERS", JsonValue(int64_t{12})}});
  report.Metric("some.metric", 1.5, "ms");
  report.Metric("some.count", int64_t{7}, "count");
  report.Knob("SLIM_EXTRA", 3);
  MetricRegistry registry;
  int64_t cell = 11;
  ASSERT_TRUE(registry.BindCounter("x.y", &cell));
  report.AttachSnapshot(registry);

  const JsonValue doc = report.Document();
  EXPECT_EQ(ValidateBenchReport(doc), std::nullopt);
  // And after a serialization round trip.
  const auto parsed = JsonParse(doc.Dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(ValidateBenchReport(*parsed), std::nullopt);
  EXPECT_EQ(parsed->Find("bench")->as_string(), "unit_test");
  EXPECT_EQ(parsed->Find("scale")->Find("SLIM_USERS")->as_int(), 12);
  EXPECT_EQ(parsed->Find("scale")->Find("SLIM_EXTRA")->as_int(), 3);
  EXPECT_EQ(parsed->Find("metrics_registry")->Find("counters")->Find("x.y")->as_int(), 11);
}

TEST(BenchReportTest, ValidatorCatchesSchemaDrift) {
  BenchReporter report("unit_test", "drift", testing::TempDir(), {});
  report.Metric("a.b", 1.0, "x");
  JsonValue doc = report.Document();

  JsonValue no_metrics = doc;
  for (auto& [key, value] : no_metrics.as_object()) {
    if (key == "metrics") {
      value = JsonValue(JsonArray{});
    }
  }
  EXPECT_NE(ValidateBenchReport(no_metrics), std::nullopt);

  JsonValue bad_version = doc;
  for (auto& [key, value] : bad_version.as_object()) {
    if (key == "schema_version") {
      value = JsonValue(int64_t{999});
    }
  }
  EXPECT_NE(ValidateBenchReport(bad_version), std::nullopt);

  EXPECT_NE(ValidateBenchReport(JsonValue("not an object")), std::nullopt);
}

// ------------------------------------- migration of the legacy stats structs

// Chaos regression: the chaos counters (checksum rejects, NACKs, replays) must appear in a
// registry snapshot with exactly the values the legacy struct accessors report.
TEST(MigrationTest, TransportSnapshotMatchesLegacyAccessorsUnderChaos) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimEndpoint a(&fabric, fabric.AddNode());
  SlimEndpoint b(&fabric, fabric.AddNode());
  b.set_handler([](const Message&, NodeId) {});

  MetricRegistry registry;
  ASSERT_TRUE(fabric.RegisterMetrics(&registry));
  ASSERT_TRUE(a.RegisterMetrics(&registry, "a.transport"));
  ASSERT_TRUE(b.RegisterMetrics(&registry, "b.transport"));

  FaultProfile chaos;
  chaos.loss = 0.10;
  chaos.duplicate = 0.05;
  chaos.corrupt = 0.05;
  chaos.truncate = 0.02;
  fabric.InjectFaults(a.node(), b.node(), chaos);

  std::function<void(int)> send_next = [&](int i) {
    if (i >= 400) {
      return;
    }
    a.Send(b.node(), 1, KeyEventMsg{static_cast<uint32_t>(i), true});
    sim.Schedule(Milliseconds(1), [&, i] { send_next(i + 1); });
  };
  send_next(0);
  sim.Run();

  const EndpointStats& bs = b.stats();
  EXPECT_GT(bs.datagrams_corrupted, 0);  // chaos really injected corruption
  EXPECT_GT(bs.nacks_sent, 0);           // and losses really triggered NACK recovery
  EXPECT_EQ(registry.CounterValue("b.transport.datagrams_corrupted"),
            bs.datagrams_corrupted);
  EXPECT_EQ(registry.CounterValue("b.transport.nacks_sent"), bs.nacks_sent);
  EXPECT_EQ(registry.CounterValue("b.transport.messages_received"), bs.messages_received);
  EXPECT_EQ(registry.CounterValue("b.transport.duplicate_messages"),
            bs.duplicate_messages);
  EXPECT_EQ(registry.CounterValue("a.transport.replays_sent"), a.stats().replays_sent);
  EXPECT_EQ(registry.CounterValue("a.transport.messages_sent"), a.stats().messages_sent);
  const FaultStats& fs = fabric.fault_stats();
  EXPECT_EQ(registry.CounterValue("fabric.fault.datagrams_corrupted"),
            fs.datagrams_corrupted);
  EXPECT_EQ(registry.CounterValue("fabric.fault.datagrams_dropped"), fs.datagrams_dropped);

  // The snapshot serializes the same values.
  const auto parsed = JsonParse(registry.SnapshotJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("counters")->Find("b.transport.nacks_sent")->as_int(),
            bs.nacks_sent);
}

TEST(MigrationTest, ServerAndConsoleRegisterWithoutCollisions) {
  Simulator sim;
  Fabric fabric(&sim, {});
  SlimServer server(&sim, &fabric, {});
  Console console(&sim, &fabric, {});
  MetricRegistry registry;
  ASSERT_TRUE(fabric.RegisterMetrics(&registry));
  ASSERT_TRUE(server.RegisterMetrics(&registry));
  ASSERT_TRUE(console.RegisterMetrics(&registry));

  const uint64_t card = server.auth().IssueCard(1);
  ServerSession& session = server.CreateSession(card);
  ASSERT_TRUE(session.RegisterMetrics(&registry));
  console.InsertCard(server.node(), card);
  sim.Run();
  session.FillRect(Rect{0, 0, 64, 64}, kWhite);
  session.Flush();
  sim.Run();

  EXPECT_EQ(registry.CounterValue("console.commands_applied"),
            console.commands_applied());
  EXPECT_EQ(registry.CounterValue("session.commands_sent"), session.commands_sent());
  EXPECT_EQ(registry.CounterValue("session.bytes_sent"), session.bytes_sent());
  EXPECT_EQ(registry.CounterValue("server.auth.accepted"), server.auth().accepted());
  EXPECT_EQ(registry.Value("server.sessions"), 1.0);
  // Per-type codec counters mirror the session's EncodeStats accumulation.
  EXPECT_EQ(registry.CounterValue("session.codec.fill.commands"),
            session.encode_stats()[static_cast<size_t>(CommandType::kFill)].commands);
  EXPECT_GT(*registry.CounterValue("session.codec.fill.commands"), 0);
}

// End-to-end trace: a full session under a lossy fabric produces a loadable Chrome trace
// with the whole pipeline on it, including transport replay-stall spans.
TEST(TraceIntegrationTest, PipelineTraceCoversDispatchToPresentAndReplayStalls) {
  Tracer tracer;
  Tracer::SetGlobal(&tracer);
  {
    Simulator sim;
    Fabric fabric(&sim, {});
    SlimServer server(&sim, &fabric, {});
    Console console(&sim, &fabric, {});
    FaultProfile chaos;
    chaos.loss = 0.15;
    fabric.InjectFaults(server.node(), console.node(), chaos);
    const uint64_t card = server.auth().IssueCard(1);
    ServerSession& session = server.CreateSession(card);
    session.set_input_handler([&session](const Message& msg) {
      if (const auto* key = std::get_if<KeyEventMsg>(&msg.body); key && key->pressed) {
        session.FillRect(Rect{static_cast<int32_t>(key->keycode % 600), 10, 80, 60},
                         kBlack);
        session.Flush();
      }
    });
    console.InsertCard(server.node(), card);
    sim.Run();
    for (int i = 0; i < 120; ++i) {
      console.SendKey(server.node(), session.id(), static_cast<uint32_t>(i), true);
      sim.RunUntil(sim.now() + Milliseconds(5));
    }
    sim.Run();
  }
  Tracer::SetGlobal(nullptr);

  std::string error;
  const auto parsed = JsonParse(tracer.Json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  bool seen[6] = {};
  const char* expected[6] = {"input.key",     "input.dispatch", "server.render",
                             "transport.send", "console.decode", "transport.replay_stall"};
  for (const JsonValue& event : parsed->as_array()) {
    const JsonValue* name = event.Find("name");
    if (name == nullptr) {
      continue;
    }
    for (int i = 0; i < 6; ++i) {
      seen[i] = seen[i] || name->as_string() == expected[i];
    }
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(seen[i]) << "missing trace event " << expected[i];
  }
  EXPECT_EQ(tracer.open_spans(), 0u);
}

}  // namespace
}  // namespace slim
