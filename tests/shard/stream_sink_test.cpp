// stream_sink_test.cpp — the NDJSON wire format: records format
// deterministically, parse back losslessly, and the sink enforces spec
// order while flushing one self-describing line per record.
#include "shard/stream_sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace dsm::shard {
namespace {

TEST(JsonObjectTest, PreservesInsertionOrderAndEscapes) {
  const std::string s = JsonObject()
                            .add("name", std::string("a\"b\\c"))
                            .add("pi", 0.5)
                            .add("n", std::uint64_t{42})
                            .add_raw("nested", "{\"x\":1}")
                            .str();
  EXPECT_EQ(s, "{\"name\":\"a\\\"b\\\\c\",\"pi\":0.5,\"n\":42,"
               "\"nested\":{\"x\":1}}");
}

TEST(JsonObjectTest, DoublesAreShortestRoundTrip) {
  // No %.17g noise: 0.2 serializes as "0.2", and a value with no short
  // form keeps every significant digit.
  EXPECT_EQ(JsonObject().add("x", 0.2).str(), "{\"x\":0.2}");
  const std::string s = JsonObject().add("x", 1.0 / 3.0).str();
  EXPECT_EQ(s, "{\"x\":0.3333333333333333}");
}

TEST(StreamRecordTest, FormatParsesBackLosslessly) {
  StreamRecord r;
  r.spec_index = 17;
  r.key = "LU/8p";
  r.seed = 0x7282ca7fbd6f6445ull;
  r.metrics = JsonObject().add("cov", 0.25).add("n", std::uint64_t{3}).str();

  const std::string line = format_record("fig2_bbv_baseline", r);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const auto parsed = parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->bench, "fig2_bbv_baseline");
  EXPECT_EQ(parsed->record.spec_index, 17u);
  EXPECT_EQ(parsed->record.key, "LU/8p");
  EXPECT_EQ(parsed->record.seed, 0x7282ca7fbd6f6445ull);
  EXPECT_EQ(parsed->record.metrics, r.metrics);
}

TEST(StreamRecordTest, EscapedStringsRoundTrip) {
  // Every escape json_escape emits: quote, backslash, newline, tab.
  const std::string odd = "a\"b\\c\nd\te";
  StreamRecord r;
  r.key = odd;
  r.metrics = JsonObject().add(odd, odd).str();
  const std::string line = format_record(odd, r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->bench, odd);
  EXPECT_EQ(parsed->record.key, odd);
  EXPECT_EQ(parsed->record.metrics, r.metrics);
}

TEST(StreamRecordTest, SchemaIsPinned) {
  // The self-describing layout is a contract with external consumers
  // (CI artifacts, downstream aggregation): byte-for-byte golden.
  StreamRecord r;
  r.spec_index = 0;
  r.key = "run";
  r.seed = 0x1;
  r.metrics = "{}";
  EXPECT_EQ(format_record("t", r),
            "{\"v\":2,\"bench\":\"t\",\"spec_index\":0,\"key\":\"run\","
            "\"seed\":\"0x0000000000000001\",\"metrics\":{}}");
}

TEST(StreamRecordTest, ParseRejectsCorruptLines) {
  StreamRecord r;
  r.key = "k";
  const std::string good = format_record("b", r);
  EXPECT_TRUE(parse_record(good).has_value());
  EXPECT_FALSE(parse_record("").has_value());
  EXPECT_FALSE(parse_record("not json").has_value());
  EXPECT_FALSE(parse_record(good + "x").has_value());  // trailing junk
  EXPECT_FALSE(parse_record(good.substr(0, good.size() - 2)).has_value());
  EXPECT_FALSE(parse_record("{\"v\":1" + good.substr(6)).has_value());
}

TEST(StreamSinkTest, WritesSpecOrderedFlushedLines) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  {
    StreamSink sink(f, "bench_x");
    StreamRecord r;
    r.key = "a";
    r.spec_index = 0;
    sink.emit(r);
    r.key = "b";
    r.spec_index = 2;  // gaps are fine: this shard owns 0,2,...
    sink.emit(r);
    EXPECT_EQ(sink.emitted(), 2u);
  }
  std::rewind(f);
  char buf[512];
  std::string text;
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  const auto nl = text.find('\n');
  const auto first = parse_record(text.substr(0, nl));
  const auto second =
      parse_record(text.substr(nl + 1, text.size() - nl - 2));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->record.spec_index, 0u);
  EXPECT_EQ(second->record.spec_index, 2u);
  EXPECT_EQ(second->record.key, "b");
}

TEST(StreamSinkDeathTest, AbortsOnOutOfOrderEmission) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        StreamSink sink(stdout, "b");
        StreamRecord r;
        r.spec_index = 2;
        sink.emit(r);
        r.spec_index = 1;
        sink.emit(r);
      },
      "increasing spec order");
}

}  // namespace
}  // namespace dsm::shard
