// heartbeat_test.cpp — the worker-progress line format: format/parse
// round-trip strictness, the same discipline parse_record applies to the
// result stream. What the fleet does with the lines (the welcome beat,
// the coordinator's tees) is tests/shard/fleet_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "shard/heartbeat.hpp"

namespace dsm::shard {
namespace {

TEST(HeartbeatFormatTest, RoundTripsEveryField) {
  Heartbeat hb;
  hb.bench = "fig2_bbv_baseline";
  hb.shard = "w3";
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
  hb.total = 4;  // done=0, last_spec=-1: the worker's welcome beat
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

}  // namespace
}  // namespace dsm::shard
