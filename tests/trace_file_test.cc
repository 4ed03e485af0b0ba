// Tests for binary trace serialization (the log-once / post-process-many workflow).

#include <gtest/gtest.h>

#include <cstdio>

#include "src/trace/trace_file.h"
#include "src/util/rng.h"
#include "src/workload/user_study.h"

namespace slim {
namespace {

ProtocolLog MakeSampleLog() {
  ProtocolLog log;
  log.RecordInput(Milliseconds(10), true);
  log.RecordXRequest(Milliseconds(11), 52);
  SetCommand set;
  set.dst = Rect{5, 6, 20, 10};
  set.rgb.assign(20 * 10 * 3, 9);
  log.RecordCommand(Milliseconds(12), DisplayCommand(set));
  log.RecordInput(Milliseconds(200), false);
  log.RecordCommand(Milliseconds(201), CopyCommand{0, 0, Rect{1, 2, 30, 40}});
  return log;
}

TEST(TraceFileTest, LogRoundTripPreservesEveryField) {
  const ProtocolLog log = MakeSampleLog();
  const auto bytes = SerializeLog(log);
  const auto back = ParseLog(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->entries().size(), log.entries().size());
  for (size_t i = 0; i < log.entries().size(); ++i) {
    const LogEntry& a = log.entries()[i];
    const LogEntry& b = back->entries()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.is_key, b.is_key);
    EXPECT_EQ(a.pixels, b.pixels);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.uncompressed_bytes, b.uncompressed_bytes);
    EXPECT_EQ(a.x_bytes, b.x_bytes);
  }
  // The derived analyses agree too.
  EXPECT_EQ(back->input_events(), log.input_events());
  EXPECT_EQ(back->AverageSlimBps(), log.AverageSlimBps());
}

TEST(TraceFileTest, RejectsCorruption) {
  auto bytes = SerializeLog(MakeSampleLog());
  // Bad magic.
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(ParseLog(bad).has_value());
  // Truncated.
  auto cut = bytes;
  ASSERT_GT(cut.size(), 3u);
  cut.erase(cut.end() - 3, cut.end());
  EXPECT_FALSE(ParseLog(cut).has_value());
  // Trailing garbage.
  auto extra = bytes;
  extra.push_back(0);
  EXPECT_FALSE(ParseLog(extra).has_value());
}

TEST(TraceFileTest, FuzzRandomBytesNeverCrash) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> noise(rng.NextBelow(300));
    for (auto& b : noise) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    (void)ParseLog(noise);
    (void)ParseServiceLog(noise);
  }
}

TEST(TraceFileTest, ServiceLogRoundTrip) {
  std::vector<ServiceRecord> log;
  for (int i = 0; i < 20; ++i) {
    ServiceRecord rec;
    rec.arrival = Milliseconds(i);
    rec.start = rec.arrival + Microseconds(5);
    rec.completion = rec.start + Microseconds(100 + i);
    rec.type = static_cast<CommandType>(1 + i % 5);
    rec.pixels = i * 100;
    rec.wire_bytes = static_cast<size_t>(44 + i);
    rec.seq = static_cast<uint64_t>(i + 1);
    log.push_back(rec);
  }
  const auto back = ParseServiceLog(SerializeServiceLog(log));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ((*back)[i].arrival, log[i].arrival);
    EXPECT_EQ((*back)[i].completion, log[i].completion);
    EXPECT_EQ((*back)[i].type, log[i].type);
    EXPECT_EQ((*back)[i].pixels, log[i].pixels);
    EXPECT_EQ((*back)[i].wire_bytes, log[i].wire_bytes);
    EXPECT_EQ((*back)[i].seq, log[i].seq);
  }
}

// A record count is checked against the bytes present before anything is reserved: a
// one-record log claiming 2^40 records is rejected, not a 56 TB allocation.
TEST(TraceFileTest, ServiceLogRejectsCountBeyondItsBytes) {
  std::vector<uint8_t> bytes = SerializeServiceLog({ServiceRecord{}});
  bytes[8 + 5] = 1;  // the u64 record count follows the 8-byte magic: 1 becomes 1 + 2^40
  EXPECT_FALSE(ParseServiceLog(bytes).has_value());
}

TEST(TraceFileTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/slim_trace_test.bin";
  const auto bytes = SerializeLog(MakeSampleLog());
  ASSERT_TRUE(WriteFile(path, bytes));
  const auto read = ReadFile(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, bytes);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFile(path).has_value());
}

TEST(TraceFileTest, RealSessionLogSurvivesRoundTrip) {
  UserSessionConfig config;
  config.kind = AppKind::kPim;
  config.seed = 9;
  config.duration = Seconds(20);
  const UserSessionResult result = RunUserSession(config);
  const auto back = ParseLog(SerializeLog(result.log));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->entries().size(), result.log.entries().size());
  EXPECT_EQ(back->AverageSlimBps(), result.log.AverageSlimBps());
  EXPECT_EQ(back->AttributeToEvents().size(), result.log.AttributeToEvents().size());
  const auto service_back = ParseServiceLog(SerializeServiceLog(result.console_log));
  ASSERT_TRUE(service_back.has_value());
  EXPECT_EQ(service_back->size(), result.console_log.size());
}

}  // namespace
}  // namespace slim
