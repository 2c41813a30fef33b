// orchestrator_test.cpp — the k-way spec-order merge that turns N worker
// streams into the single stream a serial run would have produced, and
// the validation it performs along the way: contiguous indices (every
// configuration in exactly one shard), matching bench names, parseable
// records.
#include "shard/orchestrator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "shard/stream_sink.hpp"

namespace dsm::shard {
namespace {

class VectorSource : public LineSource {
 public:
  explicit VectorSource(std::vector<std::string> lines)
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

std::string line_for(std::size_t index, const std::string& bench = "b") {
  StreamRecord r;
  r.spec_index = index;
  // Built by append: GCC 12 flags `"k" + std::to_string(...)` with a
  // false -Wrestrict.
  r.key = std::string(1, 'k').append(std::to_string(index));
  return format_record(bench, r);
}

struct MergeResult {
  bool ok = false;
  std::vector<std::string> lines;
  std::string error;
};

MergeResult merge(std::vector<std::vector<std::string>> streams) {
  std::vector<VectorSource> sources;
  sources.reserve(streams.size());
  for (auto& s : streams) sources.emplace_back(std::move(s));
  std::vector<LineSource*> ptrs;
  for (auto& s : sources) ptrs.push_back(&s);
  MergeResult out;
  out.ok = merge_streams(
      ptrs, [&](const std::string& line) { out.lines.push_back(line); },
      &out.error);
  return out;
}

TEST(MergeStreamsTest, InterleavesRoundRobinShardsInSpecOrder) {
  const auto r = merge({{line_for(0), line_for(2), line_for(4)},
                        {line_for(1), line_for(3)}});
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.lines.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.lines[i], line_for(i));
}

TEST(MergeStreamsTest, ForwardsLinesVerbatim) {
  // Byte-identity with the serial stream depends on the merge never
  // re-serializing; compare the whole line, not parsed fields.
  StreamRecord r;
  r.spec_index = 0;
  r.key = "LU/32p";
  r.seed = 0xdeadbeef;
  r.metrics = JsonObject().add("x", 0.1).str();
  const std::string line = format_record("fig4_bbv_ddv", r);
  const auto m = merge({{line}});
  ASSERT_TRUE(m.ok) << m.error;
  ASSERT_EQ(m.lines.size(), 1u);
  EXPECT_EQ(m.lines[0], line);
}

TEST(MergeStreamsTest, EmptyStreamsMergeToEmpty) {
  const auto r = merge({{}, {}});
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.lines.empty());
}

TEST(MergeStreamsTest, DuplicateIndexFails) {
  const auto r = merge({{line_for(0), line_for(1)}, {line_for(1)}});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("skipped or repeated"), std::string::npos);
}

TEST(MergeStreamsTest, MissingIndexFails) {
  // Shard 1 never produced index 1: the stream cannot be completed.
  const auto r = merge({{line_for(0), line_for(2)}, {}});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("where 1 was expected"), std::string::npos);
}

TEST(MergeStreamsTest, UnparsableLineFails) {
  const auto r = merge({{line_for(0), "garbage"}});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unparsable"), std::string::npos);
}

TEST(MergeStreamsTest, BenchNameMismatchFails) {
  const auto r = merge({{line_for(0, "fig2")}, {line_for(1, "fig4")}});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("different bench names"), std::string::npos);
}

TEST(SelfExeTest, ResolvesToARunnableBinary) {
  const std::string path = self_exe("fallback");
  // Under Linux /proc/self/exe resolves to this test binary.
  EXPECT_NE(path.find("orchestrator_test"), std::string::npos);
}

}  // namespace
}  // namespace dsm::shard
