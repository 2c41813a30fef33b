// heartbeat_test.cpp — the worker-progress side channel: format/parse
// round-trip strictness (the same discipline parse_record applies to the
// result stream) and HeartbeatEmitter's file behavior — initial record at
// construction, one appended line per completed spec, truncation of stale
// files, and silent no-op on an unopenable path (telemetry must never
// kill a worker).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "shard/heartbeat.hpp"

namespace dsm::shard {
namespace {

std::vector<std::string> lines_of(const std::string& path) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return lines;
  std::string cur;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(c));
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  std::fclose(f);
  return lines;
}

TEST(HeartbeatFormatTest, RoundTripsEveryField) {
  Heartbeat hb;
  hb.bench = "fig2_bbv_baseline";
  hb.shard = "3/8";
  hb.done = 12;
  hb.total = 25;
  hb.last_spec = 99;
  hb.wall_ms = 4321;
  hb.maxrss_kb = 65536;

  const std::string line = format_heartbeat(hb);
  EXPECT_EQ(line.rfind("{\"hb\":1,", 0), 0u);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(line, &back));
  EXPECT_EQ(back.bench, hb.bench);
  EXPECT_EQ(back.shard, hb.shard);
  EXPECT_EQ(back.done, hb.done);
  EXPECT_EQ(back.total, hb.total);
  EXPECT_EQ(back.last_spec, hb.last_spec);
  EXPECT_EQ(back.wall_ms, hb.wall_ms);
  EXPECT_EQ(back.maxrss_kb, hb.maxrss_kb);
}

TEST(HeartbeatFormatTest, RoundTripsInitialState) {
  Heartbeat hb;
  hb.bench = "b";
  hb.shard = "0/1";
  hb.total = 4;  // done=0, last_spec=-1: the construction-time record
  const std::string line = format_heartbeat(hb);
  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(line, &back));
  EXPECT_EQ(back.done, 0u);
  EXPECT_EQ(back.last_spec, -1);
}

TEST(HeartbeatFormatTest, EscapedStringsRoundTrip) {
  // Every escape json_escape emits: quote, backslash, newline, tab.
  Heartbeat hb;
  hb.bench = "a\"b\\c\nd\te";
  hb.shard = "w\t1";
  const std::string line = format_heartbeat(hb);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(line, &back));
  EXPECT_EQ(back.bench, hb.bench);
  EXPECT_EQ(back.shard, hb.shard);
}

TEST(HeartbeatFormatTest, ParserIsStrict) {
  Heartbeat hb;
  EXPECT_FALSE(parse_heartbeat("", &hb));
  EXPECT_FALSE(parse_heartbeat("{}", &hb));
  EXPECT_FALSE(parse_heartbeat("not json", &hb));
  // A result-stream record is not a heartbeat.
  EXPECT_FALSE(parse_heartbeat(R"({"v":2,"bench":"x","spec_index":0})", &hb));
  // Right shape, wrong magic.
  EXPECT_FALSE(parse_heartbeat(
      R"({"hb":2,"bench":"b","shard":"0/1","done":0,"total":1,)"
      R"("last_spec":-1,"wall_ms":0,"maxrss_kb":0})",
      &hb));
  // Trailing garbage after a valid record.
  const std::string good = format_heartbeat(Heartbeat{"b", "0/1", 0, 1});
  EXPECT_TRUE(parse_heartbeat(good, &hb));
  EXPECT_FALSE(parse_heartbeat(good + "x", &hb));
}

TEST(HeartbeatEmitterTest, WritesInitialRecordThenOnePerProgress) {
  const std::string path = ::testing::TempDir() + "hb_emitter_test.ndjson";
  {
    HeartbeatEmitter em(path, "bench_x", "1/4", /*total=*/3);
    ASSERT_TRUE(em.ok());
    em.progress(7);
    em.progress(11);
  }
  const std::vector<std::string> lines = lines_of(path);
  ASSERT_EQ(lines.size(), 3u);

  Heartbeat hb;
  ASSERT_TRUE(parse_heartbeat(lines[0], &hb));
  EXPECT_EQ(hb.done, 0u);
  EXPECT_EQ(hb.last_spec, -1);
  EXPECT_EQ(hb.total, 3u);
  EXPECT_EQ(hb.bench, "bench_x");
  EXPECT_EQ(hb.shard, "1/4");
  ASSERT_TRUE(parse_heartbeat(lines[1], &hb));
  EXPECT_EQ(hb.done, 1u);
  EXPECT_EQ(hb.last_spec, 7);
  ASSERT_TRUE(parse_heartbeat(lines[2], &hb));
  EXPECT_EQ(hb.done, 2u);
  EXPECT_EQ(hb.last_spec, 11);
  std::remove(path.c_str());
}

TEST(HeartbeatEmitterTest, TruncatesStaleFile) {
  const std::string path = ::testing::TempDir() + "hb_stale_test.ndjson";
  {
    HeartbeatEmitter em(path, "old_run", "0/2", 100);
    for (int i = 0; i < 5; ++i) em.progress(i);
  }
  ASSERT_EQ(lines_of(path).size(), 6u);
  {
    HeartbeatEmitter em(path, "new_run", "0/2", 2);
  }
  const std::vector<std::string> lines = lines_of(path);
  ASSERT_EQ(lines.size(), 1u);
  Heartbeat hb;
  ASSERT_TRUE(parse_heartbeat(lines[0], &hb));
  EXPECT_EQ(hb.bench, "new_run");
  EXPECT_EQ(hb.done, 0u);
  std::remove(path.c_str());
}

TEST(HeartbeatEmitterTest, UnopenablePathDisablesQuietly) {
  HeartbeatEmitter em("/nonexistent-dir-xyzzy/hb.ndjson", "b", "0/1", 1);
  EXPECT_FALSE(em.ok());
  em.progress(0);  // must not crash
}

}  // namespace
}  // namespace dsm::shard
