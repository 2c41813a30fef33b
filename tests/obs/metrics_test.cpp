// metrics_test.cpp — the deterministic metrics registry's contracts:
// registration order defines snapshot order, re-registration by name
// dedups to the same slot, null handles are no-ops, and the JSON
// rendering is byte-stable (the property the NDJSON determinism
// comparisons rest on).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "obs/observability.hpp"

namespace dsm::obs {
namespace {

TEST(MetricsTest, CounterRegistrationAndIncrement) {
  MetricsRegistry reg;
  CounterHandle a = reg.counter("coh.fill.no_victim");
  CounterHandle b = reg.counter("coh.fill.with_victim");
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_EQ(reg.num_counters(), 2u);

  a.inc();
  a.inc();
  b.add(5);
  EXPECT_EQ(reg.value("coh.fill.no_victim"), 2u);
  EXPECT_EQ(reg.value("coh.fill.with_victim"), 5u);
  EXPECT_EQ(reg.value("never.registered"), 0u);
}

TEST(MetricsTest, ReRegistrationDedupsToTheSameSlot) {
  MetricsRegistry reg;
  CounterHandle a = reg.counter("net.link0.msgs");
  CounterHandle b = reg.counter("net.link0.msgs");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.num_counters(), 1u);
  EXPECT_EQ(reg.value("net.link0.msgs"), 2u);
}

TEST(MetricsTest, NullHandlesAreNoOps) {
  CounterHandle c;
  HistogramHandle h;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(h));
  // Must not crash; must not touch anything.
  c.inc();
  c.add(100);
  h.record(3);
}

TEST(MetricsTest, HistogramClampsIntoLastBucket) {
  MetricsRegistry reg;
  HistogramHandle h = reg.histogram("dir.probe_len", 4);
  h.record(0);
  h.record(1);
  h.record(3);    // last bucket exactly
  h.record(100);  // clamps into last bucket
  const std::vector<std::uint64_t> want{1, 1, 0, 2};
  EXPECT_EQ(reg.histogram_values("dir.probe_len"), want);
  EXPECT_TRUE(reg.histogram_values("no.such.hist").empty());
}

// The snapshot is a byte-level artifact (it is spliced into NDJSON
// records that get byte-compared across run modes), so its exact
// rendering is part of the contract, not an implementation detail.
TEST(MetricsTest, SnapshotJsonIsByteStable) {
  const auto build = [] {
    MetricsRegistry reg;
    CounterHandle a = reg.counter("coh.trans.uncached_read");
    CounterHandle b = reg.counter("coh.trans.shared_write");
    HistogramHandle h = reg.histogram("dir.probe_len", 3);
    a.add(3);
    b.inc();
    h.record(0);
    h.record(9);
    return reg.snapshot_json();
  };
  const std::string one = build();
  const std::string two = build();
  EXPECT_EQ(one, two);
  EXPECT_EQ(one,
            "{\"counters\":{\"coh.trans.uncached_read\":3,"
            "\"coh.trans.shared_write\":1},"
            "\"histograms\":{\"dir.probe_len\":[1,0,1]}}");
}

TEST(MetricsTest, ObservabilityOffHandsOutNullHandlesOnly) {
  ObsConfig cfg;  // stats and trace both default off
  Observability obs(cfg, /*num_nodes=*/4);
  EXPECT_FALSE(obs.stats_enabled());
  EXPECT_FALSE(obs.trace_enabled());
  EXPECT_FALSE(static_cast<bool>(obs.counter("coh.fill.no_victim")));
  EXPECT_FALSE(static_cast<bool>(obs.histogram("dir.probe_len", 16)));
  EXPECT_EQ(obs.trace(), nullptr);
  EXPECT_EQ(obs.snapshot_json(), "");
}

TEST(MetricsTest, ObservabilityOnHandsOutLiveHandles) {
  ObsConfig cfg;
  cfg.stats = true;
  Observability obs(cfg, /*num_nodes=*/4);
  CounterHandle c = obs.counter("coh.evict.writeback");
  ASSERT_TRUE(static_cast<bool>(c));
  c.inc();
  EXPECT_EQ(obs.metrics().value("coh.evict.writeback"), 1u);
  EXPECT_NE(obs.snapshot_json().find("coh.evict.writeback"),
            std::string::npos);
}

}  // namespace
}  // namespace dsm::obs
