// record_reader_test.cpp — the strict record reader must reject every
// malformed or mis-ordered input with a *distinct* diagnostic: the result
// store is the only artifact a fleet run leaves behind, and "fail loudly,
// never guess" is its contract. Table-driven over the failure modes the
// offline pipeline can meet in practice (truncated files, version skew,
// shard files merged in the wrong way, files from different harnesses).
#include "report/record_reader.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "shard/stream_sink.hpp"

namespace dsm::report {
namespace {

/// In-memory line stream.
class VectorLineSource : public shard::LineSource {
 public:
  explicit VectorLineSource(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}
  bool next(std::string& line) override {
    if (pos_ >= lines_.size()) return false;
    line = lines_[pos_++];
    return true;
  }

 private:
  std::vector<std::string> lines_;
  std::size_t pos_ = 0;
};

/// A well-formed record line with the context envelope bench_util wraps
/// around harness metrics.
std::string make_line(const std::string& bench, std::size_t index,
                      const std::string& app = "LU", unsigned nodes = 8) {
  shard::StreamRecord rec;
  rec.spec_index = index;
  rec.key = app + "/" + std::to_string(nodes) + "p";
  rec.seed = 0x1234abcd + index;
  rec.metrics = shard::JsonObject()
                    .add("app", app)
                    .add("nodes", std::uint64_t{nodes})
                    .add("variant", std::string())
                    .add("param", 0.0)
                    .add("scale", std::string("test"))
                    .add_raw("m", shard::JsonObject()
                                      .add("value", 1.5)
                                      .add("count", std::uint64_t{7})
                                      .str())
                    .str();
  return format_record(bench, rec);
}

std::string reader_error(std::vector<std::string> lines, StreamKind kind) {
  VectorLineSource src(std::move(lines));
  RecordReader reader(src, kind);
  RecordView rec;
  while (reader.next(&rec)) {
  }
  EXPECT_FALSE(reader.ok());
  return reader.error();
}

TEST(ReadRecordTest, RoundTripsAllFields) {
  RecordView rec;
  std::string err;
  ASSERT_TRUE(read_record(make_line("fig2_bbv_baseline", 3), &rec, &err))
      << err;
  EXPECT_EQ(rec.bench, "fig2_bbv_baseline");
  EXPECT_EQ(rec.spec_index, 3u);
  EXPECT_EQ(rec.key, "LU/8p");
  EXPECT_EQ(rec.seed, 0x1234abcdu + 3);
  EXPECT_EQ(rec.app, "LU");
  EXPECT_EQ(rec.nodes, 8u);
  EXPECT_EQ(rec.variant, "");
  EXPECT_DOUBLE_EQ(rec.param, 0.0);
  EXPECT_EQ(rec.scale, "test");
  EXPECT_DOUBLE_EQ(rec.m().at("value").number(), 1.5);
  EXPECT_EQ(rec.m().at("count").unsigned_int(), 7u);
}

// Stores written while sweeps had a batch-size axis carry a "batch" field;
// nothing reads it any more, but such stores must keep parsing.
TEST(ReadRecordTest, AcceptsLegacyBatchField) {
  RecordView rec;
  std::string err;
  EXPECT_TRUE(read_record(
      R"({"v":2,"bench":"b","spec_index":0,"key":"LU/8p/b4","seed":"0x1",)"
      R"("metrics":{"app":"LU","nodes":8,"variant":"","param":0,)"
      R"("scale":"test","batch":4,"m":{}}})",
      &rec, &err))
      << err;
}

// Each malformed input is rejected with a diagnostic naming ITS failure —
// not a generic "bad record".
TEST(ReadRecordTest, DistinctDiagnosticsPerFailureMode) {
  const std::string good = make_line("b", 0);
  struct Case {
    const char* what;
    std::string line;
    const char* expect;
  };
  const std::vector<Case> cases = {
      {"truncated line", good.substr(0, good.size() / 2),
       "malformed record line"},
      {"trailing junk", good + "}", "malformed record line"},
      {"empty line", "", "empty line"},
      {"not JSON", "accesses: 12", "malformed record line"},
      {"not an object", "[1,2,3]", "not a JSON object"},
      {"bad version (pre-envelope store)", "{\"v\":1" + good.substr(6),
       "unsupported schema version 1"},
      {"missing bench",
       R"({"v":2,"spec_index":0,"key":"k","seed":"0x1","metrics":{}})",
       "missing field 'bench'"},
      {"bad seed",
       R"({"v":2,"bench":"b","spec_index":0,"key":"k","seed":"17",)"
       R"("metrics":{}})",
       "field 'seed' must be a \"0x...\" hex string"},
      {"metrics not object",
       R"({"v":2,"bench":"b","spec_index":0,"key":"k","seed":"0x1",)"
       R"("metrics":7})",
       "field 'metrics' must be an object"},
      {"missing context",
       R"({"v":2,"bench":"b","spec_index":0,"key":"k","seed":"0x1",)"
       R"("metrics":{"m":{}}})",
       "missing string field 'app'"},
      {"missing m",
       R"({"v":2,"bench":"b","spec_index":0,"key":"k","seed":"0x1",)"
       R"("metrics":{"app":"LU","nodes":8,"variant":"","param":0,)"
       R"("scale":"test"}})",
       "missing object field 'm'"},
      {"legacy batch field not positive",
       R"({"v":2,"bench":"b","spec_index":0,"key":"k","seed":"0x1",)"
       R"("metrics":{"app":"LU","nodes":8,"variant":"","param":0,)"
       R"("scale":"test","batch":0,"m":{}}})",
       "'batch' must be a positive integer"},
  };
  for (const auto& c : cases) {
    RecordView rec;
    std::string err;
    EXPECT_FALSE(read_record(c.line, &rec, &err)) << c.what;
    EXPECT_NE(err.find(c.expect), std::string::npos)
        << c.what << ": got diagnostic '" << err << "'";
  }
}

TEST(RecordReaderTest, AcceptsContiguousMergedStream) {
  VectorLineSource src({make_line("b", 0), make_line("b", 1),
                        make_line("b", 2)});
  RecordReader reader(src, StreamKind::kMergedStream);
  RecordView rec;
  while (reader.next(&rec)) {
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.records(), 3u);
  EXPECT_EQ(reader.bench(), "b");
}

TEST(RecordReaderTest, ShardSliceAllowsGapsButNotDisorder) {
  // A worker's own file is a round-robin slice: 0, 2, 4 is fine...
  VectorLineSource src({make_line("b", 0), make_line("b", 2),
                        make_line("b", 4)});
  RecordReader reader(src, StreamKind::kShardSlice);
  RecordView rec;
  while (reader.next(&rec)) {
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.records(), 3u);
}

TEST(RecordReaderTest, RejectsDuplicateIndex) {
  const auto err = reader_error({make_line("b", 0), make_line("b", 0)},
                                StreamKind::kShardSlice);
  EXPECT_NE(err.find("duplicate spec index 0"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(RecordReaderTest, RejectsOutOfOrderIndex) {
  const auto err = reader_error({make_line("b", 3), make_line("b", 1)},
                                StreamKind::kShardSlice);
  EXPECT_NE(err.find("records out of order"), std::string::npos) << err;
}

TEST(RecordReaderTest, RejectsGapInMergedStream) {
  // A merged file with a hole means a shard file was not collected: the
  // non-contiguous merge must fail, not render a partial table.
  const auto err = reader_error({make_line("b", 0), make_line("b", 2)},
                                StreamKind::kMergedStream);
  EXPECT_NE(err.find("gap in spec indices"), std::string::npos) << err;
  EXPECT_NE(err.find("expected 1, got 2"), std::string::npos) << err;
}

TEST(RecordReaderTest, RejectsMergedStreamNotStartingAtZero) {
  const auto err =
      reader_error({make_line("b", 1)}, StreamKind::kMergedStream);
  EXPECT_NE(err.find("expected 0, got 1"), std::string::npos) << err;
}

TEST(RecordReaderTest, RejectsMixedBenchNames) {
  const auto err =
      reader_error({make_line("fig2_bbv_baseline", 0),
                    make_line("fig4_bbv_ddv", 1)},
                   StreamKind::kMergedStream);
  EXPECT_NE(err.find("bench name changed mid-stream"), std::string::npos)
      << err;
  EXPECT_NE(err.find("fig2_bbv_baseline"), std::string::npos) << err;
  EXPECT_NE(err.find("fig4_bbv_ddv"), std::string::npos) << err;
}

TEST(RecordReaderTest, StopsAtFirstErrorAndNamesTheLine) {
  const auto err = reader_error(
      {make_line("b", 0), "garbage", make_line("b", 2)},
      StreamKind::kMergedStream);
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

}  // namespace
}  // namespace dsm::report
