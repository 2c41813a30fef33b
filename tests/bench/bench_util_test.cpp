// bench_util_test.cpp — parse_options used to exit() on malformed input,
// which made it untestable and would kill a multi-sweep driver mid-flight.
// It now returns a ParseResult; these are the tests that exit() precluded.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace dsm::bench {
namespace {

ParseResult parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return parse_options(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()));
}

TEST(ParseOptionsTest, DefaultsWhenNoFlags) {
  const auto r = parse({});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.scale, apps::Scale::kPaper);
  EXPECT_TRUE(r.options.app_names.empty());
  EXPECT_TRUE(r.options.node_counts.empty());
  EXPECT_EQ(r.options.threads, 1u);
  EXPECT_FALSE(r.options.verbose);
}

TEST(ParseOptionsTest, ParsesEveryFlag) {
  const auto r = parse({"--scale=test", "--apps=LU,FMM", "--nodes=2,8",
                        "--csv=/tmp/x", "--threads=4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.scale, apps::Scale::kTest);
  EXPECT_EQ(r.options.app_names,
            (std::vector<std::string>{"LU", "FMM"}));
  EXPECT_EQ(r.options.node_counts, (std::vector<unsigned>{2, 8}));
  EXPECT_EQ(r.options.csv_dir, "/tmp/x");
  EXPECT_EQ(r.options.threads, 4u);
}

TEST(ParseOptionsTest, ThreadsZeroMeansAuto) {
  const auto r = parse({"--threads=0"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.threads, 0u);
  EXPECT_GE(driver::ExperimentRunner(r.options.threads).threads(), 1u);
}

TEST(ParseOptionsTest, UnknownOptionFailsWithoutExiting) {
  const auto r = parse({"--frobnicate"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--frobnicate"), std::string::npos);
}

TEST(ParseOptionsTest, UnknownAppFailsAtParse) {
  const auto r = parse({"--apps=LU,Equak"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("Equak"), std::string::npos);
  // Case differences are not errors.
  EXPECT_TRUE(parse({"--apps=lu,EQUAKE"}).ok);
}

TEST(ParseOptionsTest, BadScaleFails) {
  const auto r = parse({"--scale=huge"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("huge"), std::string::npos);
}

TEST(ParseOptionsTest, BadThreadsValueFails) {
  EXPECT_FALSE(parse({"--threads=many"}).ok);
  EXPECT_FALSE(parse({"--threads="}).ok);
  EXPECT_FALSE(parse({"--threads=4x"}).ok);
  // Signed and wrapping values must not sneak through strtoul.
  EXPECT_FALSE(parse({"--threads=-1"}).ok);
  EXPECT_FALSE(parse({"--threads=99999999999999999999"}).ok);
  EXPECT_FALSE(parse({"--threads=5000"}).ok);  // past the sanity cap
}

TEST(ParseOptionsTest, BadNodesEntriesFail) {
  EXPECT_FALSE(parse({"--nodes=2,zero"}).ok);
  EXPECT_FALSE(parse({"--nodes=0"}).ok);
  EXPECT_FALSE(parse({"--nodes=-1"}).ok);
  EXPECT_FALSE(parse({"--nodes=4294967298"}).ok);  // would truncate to 2
  EXPECT_FALSE(parse({"--nodes=2,+8"}).ok);
}

TEST(ParseOptionsTest, NodeCountsTheMachineCannotBuildFail) {
  // Past the full-map directory's 64 nodes, and not a power of two for
  // the default hypercube: usage errors, not aborts mid-sweep.
  const auto big = parse({"--nodes=128"});
  EXPECT_FALSE(big.ok);
  EXPECT_NE(big.error.find("at most 64"), std::string::npos) << big.error;
  const auto six = parse({"--nodes=2,6"});
  EXPECT_FALSE(six.ok);
  EXPECT_NE(six.error.find("power-of-two"), std::string::npos) << six.error;
  EXPECT_TRUE(parse({"--nodes=1,64"}).ok);
  // A harness that also sweeps the 2-D mesh needs square counts.
  const auto eight = check_node_counts(parse({"--nodes=4,8"}),
                                       Topology::kMesh2D);
  EXPECT_FALSE(eight.ok);
  EXPECT_NE(eight.error.find("square"), std::string::npos) << eight.error;
  EXPECT_TRUE(check_node_counts(parse({"--nodes=4,16"}), Topology::kMesh2D).ok);
}

TEST(ParseOptionsTest, ScaleSetReportsExplicitScale) {
  EXPECT_FALSE(parse({}).scale_set);
  EXPECT_FALSE(parse({"--threads=2"}).scale_set);
  EXPECT_TRUE(parse({"--scale=test"}).scale_set);
}

TEST(ParseOptionsTest, ParsesShardWorkerFlag) {
  const auto r = parse({"--shard=1/4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.options.shard_set);
  EXPECT_TRUE(stream_mode(r.options));
  EXPECT_EQ(r.options.shard.index, 1u);
  EXPECT_EQ(r.options.shard.count, 4u);
  // Default: not a shard worker, full sweep, human output.
  const auto d = parse({});
  EXPECT_FALSE(d.options.shard_set);
  EXPECT_FALSE(stream_mode(d.options));
  EXPECT_EQ(d.options.shard.count, 1u);
}

TEST(ParseOptionsTest, ParsesOrchestratorFlag) {
  const auto r = parse({"--shards=4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.shards, 4u);
  EXPECT_FALSE(stream_mode(r.options));  // orchestrator is not a worker
  EXPECT_EQ(parse({}).options.shards, 0u);
}

TEST(ParseOptionsTest, BadShardValuesFail) {
  EXPECT_FALSE(parse({"--shard="}).ok);
  EXPECT_FALSE(parse({"--shard=2"}).ok);
  EXPECT_FALSE(parse({"--shard=2/2"}).ok);   // index out of range
  EXPECT_FALSE(parse({"--shard=-1/2"}).ok);
  EXPECT_FALSE(parse({"--shard=a/b"}).ok);
  EXPECT_FALSE(parse({"--shards=0"}).ok);
  EXPECT_FALSE(parse({"--shards=many"}).ok);
  EXPECT_FALSE(parse({"--shards=99999"}).ok);  // past the sanity cap
}

TEST(ParseOptionsTest, WorkerAndOrchestratorFlagsAreMutuallyExclusive) {
  const auto r = parse({"--shard=0/2", "--shards=2"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("mutually exclusive"), std::string::npos);
}

TEST(ParseOptionsTest, CsvIsRejectedInShardedRuns) {
  // Stream mode replaces the table/CSV printing path; silently writing
  // no files would be worse than refusing.
  EXPECT_FALSE(parse({"--csv=/tmp/x", "--shard=0/2"}).ok);
  EXPECT_FALSE(parse({"--csv=/tmp/x", "--shards=2"}).ok);
  EXPECT_TRUE(parse({"--csv=/tmp/x", "--threads=2"}).ok);
}

// Every fleet and observability flag: one accepted value, the field it
// sets, and each class of value it rejects. Coordinator-only flags are
// parsed alongside --shards=2 and must be refused without it.
TEST(ParseOptionsTest, FleetAndObsFlagsAcceptAndReject) {
  struct Case {
    const char* accepted;
    bool coordinator_only;
    std::function<bool(const BenchOptions&)> applied;
    std::vector<const char*> rejected;
  };
  const std::vector<Case> cases = {
      {"--pull=fd:3", false,
       [](const BenchOptions& o) { return o.pull_endpoint == "fd:3"; },
       {"--pull=", "--pull=fd:", "--pull=fd:x", "--pull=fd:70000",
        "--pull=host", "--pull=:80", "--pull=host:0", "--pull=host:65536"}},
      {"--listen=9000", true,
       [](const BenchOptions& o) { return o.listen_port == 9000; },
       {"--listen=", "--listen=0", "--listen=65536", "--listen=-1",
        "--listen=port"}},
      {"--resume=store.ndjson", true,
       [](const BenchOptions& o) { return o.resume_store == "store.ndjson"; },
       {"--resume="}},
      {"--lease-log=ledger.ndjson", true,
       [](const BenchOptions& o) { return o.lease_log == "ledger.ndjson"; },
       {"--lease-log="}},
      {"--inject-fault=worker-hang@5", true,
       [](const BenchOptions& o) {
         return o.fault == shard::FaultKind::kWorkerHang && o.fault_spec == 5;
       },
       {"--inject-fault=", "--inject-fault=worker-hang",
        "--inject-fault=worker-hang@", "--inject-fault=worker-hang@x",
        "--inject-fault=@5", "--inject-fault=segfault@5"}},
      {"--lease-timeout-ms=5000", false,
       [](const BenchOptions& o) {
         return o.tuning.heartbeat_deadline_ms == 5000;
       },
       {"--lease-timeout-ms=", "--lease-timeout-ms=0",
        "--lease-timeout-ms=86400001", "--lease-timeout-ms=-5",
        "--lease-timeout-ms=5s"}},
      {"--hb-interval-ms=200", false,
       [](const BenchOptions& o) {
         return o.tuning.heartbeat_interval_ms == 200;
       },
       {"--hb-interval-ms=", "--hb-interval-ms=0", "--hb-interval-ms=3600001",
        "--hb-interval-ms=fast"}},
      {"--backoff-ms=10000", false,
       [](const BenchOptions& o) {
         // A base above the default cap raises the cap with it.
         return o.tuning.backoff_base_ms == 10000 &&
                o.tuning.backoff_max_ms == 10000;
       },
       {"--backoff-ms=", "--backoff-ms=0", "--backoff-ms=3600001",
        "--backoff-ms=1e3"}},
      {"--heartbeat=hb.ndjson", false,
       [](const BenchOptions& o) { return o.heartbeat_path == "hb.ndjson"; },
       {"--heartbeat="}},
      {"--trace=events.bin", false,
       [](const BenchOptions& o) { return o.trace_path == "events.bin"; },
       {"--trace="}},
  };
  const auto parse_case = [](const Case& c, const char* arg) {
    return c.coordinator_only ? parse({"--shards=2", arg}) : parse({arg});
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.accepted);
    const auto r = parse_case(c, c.accepted);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(c.applied(r.options));
    for (const char* bad : c.rejected) {
      const auto b = parse_case(c, bad);
      EXPECT_FALSE(b.ok) << bad;
      EXPECT_FALSE(b.error.empty()) << bad;
    }
    if (c.coordinator_only) {
      const auto stray = parse({c.accepted});
      EXPECT_FALSE(stray.ok);
      EXPECT_NE(stray.error.find("only makes sense on the coordinator"),
                std::string::npos);
    }
  }
}

TEST(ParseOptionsTest, PullIsExclusiveWithShardFlags) {
  EXPECT_TRUE(parse({"--pull=fd:3", "--threads=2"}).ok);
  for (const char* other : {"--shard=0/2", "--shards=2"}) {
    const auto r = parse({"--pull=fd:3", other});
    EXPECT_FALSE(r.ok) << other;
    EXPECT_NE(r.error.find("mutually exclusive"), std::string::npos);
  }
}

TEST(ParseOptionsTest, RemovedFleetKnobsAreUnknownOptions) {
  // The respawn cap and the lease size are no longer flags; a launch
  // script still passing them must fail loudly, not be ignored. (Spelled
  // in pieces so a code search for the removed names finds no live use.)
  for (const char* gone : {"--max-" "respawns=3", "--lease-" "chunk=4"}) {
    const auto r = parse({"--shards=2", gone});
    EXPECT_FALSE(r.ok) << gone;
    EXPECT_NE(r.error.find("unknown option"), std::string::npos);
  }
}

TEST(MaybeOrchestrateTest, PassesThroughWhenNotOrchestrating) {
  std::vector<const char*> args = {"bench", "--threads=2"};
  const auto parsed = parse_options(static_cast<int>(args.size()),
                                    const_cast<char**>(args.data()));
  EXPECT_FALSE(maybe_orchestrate(static_cast<int>(args.size()),
                                 const_cast<char**>(args.data()), parsed)
                   .has_value());
}

TEST(ParseOptionsTest, GoogleBenchmarkFlagsAreIgnored) {
  const auto r = parse({"--benchmark_filter=BM_Bbv", "--threads=2"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.threads, 2u);
}

TEST(SelectedAppsTest, DefaultsToAllFourInTableOrder) {
  BenchOptions opt;
  const auto apps = selected_apps(opt);
  ASSERT_EQ(apps.size(), 4u);
  EXPECT_EQ(apps[0]->name, "LU");
  EXPECT_EQ(apps[3]->name, "Equake");
}

TEST(SelectedAppsTest, FilterKeepsTableOrder) {
  BenchOptions opt;
  opt.app_names = {"Equake", "LU"};  // order on the command line
  const auto apps = selected_apps(opt);
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0]->name, "LU");  // Table II order wins for figures
  EXPECT_EQ(apps[1]->name, "Equake");
}

TEST(SelectedAppsTest, MatchesCaseInsensitively) {
  BenchOptions opt;
  opt.app_names = {"lu", "EQUAKE"};
  const auto apps = selected_apps(opt);
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0]->name, "LU");
  EXPECT_EQ(apps[1]->name, "Equake");
}

TEST(RunSweepTest, EmptySelectionYieldsEmptySweep) {
  BenchOptions opt;
  opt.app_names = {"NotAnApp"};
  EXPECT_TRUE(selected_apps(opt).empty());
  // Must run nothing — not expand to a default "" spec point that would
  // abort inside app_by_name.
  int reduced = 0;
  const auto sweep = [&](const std::vector<const apps::AppInfo*>& apps,
                         const std::vector<unsigned>& nodes) {
    return run_reduced_sweep<int>(
        apps, nodes, opt, "fig4_bbv_ddv",
        [&](const driver::SpecPoint&, sim::RunSummary&&) {
          return ++reduced;
        },
        [](const driver::SpecPoint&, const int&) { return std::string(); });
  };
  EXPECT_EQ(sweep(selected_apps(opt), {8}), 0);
  EXPECT_EQ(sweep({&apps::paper_apps().front()}, {}), 0);
  EXPECT_EQ(reduced, 0);
}

TEST(NamedAppsTest, CommandLineOrderWins) {
  BenchOptions opt;
  opt.app_names = {"Equake", "LU"};
  const auto apps = named_apps(opt, {"FMM"});
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0]->name, "Equake");
  EXPECT_EQ(apps[1]->name, "LU");
}

TEST(NamedAppsTest, DefaultsApplyWhenUnset) {
  BenchOptions opt;
  const auto apps = named_apps(opt, {"FMM"});
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0]->name, "FMM");
}

}  // namespace
}  // namespace dsm::bench
