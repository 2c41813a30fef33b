// fleet_test.cpp — run_fleet() end to end over the preconnected-fd seam,
// with scripted in-process "workers" speaking the pull protocol over real
// socketpairs: happy-path merge, worker death mid-sweep (byte-identical
// recovery — the acceptance bar), duplicate-record discard, truncated
// and oversized frames, resume-from-store leasing only the gaps, the
// lease ledger, the heartbeat tees, the empty sweep, and a hello that
// arrives after the sweep is done — and once over TCP, through the
// `--listen` accept path. No forks: deaths are socket closes, orderings
// are latches, and the default 30 s heartbeat deadline never fires in a
// sub-second test. The only sleep is a TCP worker's retry while the
// coordinator starts listening.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <latch>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "shard/coordinator.hpp"
#include "shard/fleet_msg.hpp"
#include "shard/heartbeat.hpp"
#include "shard/pull_worker.hpp"
#include "shard/resume.hpp"
#include "shard/stream_sink.hpp"
#include "shard/transport.hpp"

namespace dsm::shard {
namespace {

constexpr char kBench[] = "fleet_test_bench";

/// The content-derived record for one spec index — every scripted worker
/// produces identical bytes for the same index, mirroring the real
/// harness's content-hashed seeds (what makes re-leases byte-safe).
std::string record_line(std::size_t index) {
  StreamRecord r;
  r.spec_index = index;
  r.key = "cfg/" + std::to_string(index);
  r.seed = 0x1000 + index;
  r.metrics = "{}";
  return format_record(kBench, r);
}

/// The expected merged output for a `total`-point sweep.
std::string expected_output(std::size_t total) {
  std::string out;
  for (std::size_t i = 0; i < total; ++i) out += record_line(i) + "\n";
  return out;
}

struct WorkerScript {
  /// Die (close the socket) once this many records were emitted.
  std::size_t die_after = ~std::size_t{0};
  /// When dying, first send half a record with no terminator.
  bool truncate_on_death = false;
  /// Send the first record of the first lease twice (a re-lease race).
  bool duplicate_first = false;
  /// Wait on this latch before sending hello (sequences a late joiner).
  std::latch* hello_gate = nullptr;
  /// Count this latch down once fin arrives.
  std::latch* fin_seen = nullptr;
  /// After fin, send one heartbeat counting the records sent, as a real
  /// worker's last beat can arrive once the coordinator is tearing down.
  bool beat_after_fin = false;
  /// Send one done=0 beat on welcome and none after, like a real worker
  /// whose beats a fault muted.
  bool beat_on_welcome = false;
};

bool is_fin(const std::string& line) {
  const auto msg = parse_fleet_msg(line);
  return msg && msg->type == FleetMsg::Type::kFin;
}

/// One scripted pull worker over an already-connected fd. Records every
/// lease range it was granted into `leases` (under `mu`).
void run_worker(int fd, std::size_t total, const WorkerScript& script,
                std::vector<Lease>* leases = nullptr,
                std::mutex* mu = nullptr) {
  FdTransport t(fd);
  if (script.hello_gate != nullptr) script.hello_gate->wait();
  if (!t.send_line(format_hello(kBench, total))) return;
  std::string line;
  // welcome — or fin, when the sweep finished before our hello was read.
  if (!t.recv_line(&line)) return;
  if (script.beat_on_welcome && !is_fin(line)) {
    Heartbeat hb;
    hb.bench = kBench;
    hb.shard = "w0";
    hb.total = total;
    if (!t.send_line(format_heartbeat(hb))) return;
  }
  std::size_t emitted = 0;
  bool first_record = true;
  while (!is_fin(line)) {
    if (!t.send_line(format_pull())) return;
    if (!t.recv_line(&line)) return;
    const auto msg = parse_fleet_msg(line);
    if (!msg || msg->type != FleetMsg::Type::kLease) break;  // fin
    if (leases != nullptr) {
      std::lock_guard<std::mutex> lock(*mu);
      leases->push_back({static_cast<std::size_t>(msg->lo),
                         static_cast<std::size_t>(msg->hi)});
    }
    for (std::size_t idx = msg->lo; idx < msg->hi; ++idx) {
      if (emitted >= script.die_after) {
        if (script.truncate_on_death)
          t.send_raw(record_line(idx).substr(0, 10));
        return;  // ~FdTransport closes the fd: EOF at the coordinator
      }
      if (!t.send_line(record_line(idx))) return;
      if (first_record && script.duplicate_first)
        if (!t.send_line(record_line(idx))) return;
      first_record = false;
      ++emitted;
    }
  }
  if (script.fin_seen != nullptr && is_fin(line))
    script.fin_seen->count_down();
  if (script.beat_after_fin && is_fin(line)) {
    Heartbeat hb;
    hb.bench = kBench;
    hb.shard = "w0";
    hb.done = emitted;
    hb.total = total;
    t.send_line(format_heartbeat(hb));
  }
}

/// Every line of the heartbeat tee at `path`, parsed; removes the file.
std::vector<Heartbeat> read_tee(const std::string& path) {
  std::vector<Heartbeat> beats;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return beats;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    std::string text(line);
    if (!text.empty() && text.back() == '\n') text.pop_back();
    Heartbeat hb;
    EXPECT_TRUE(parse_heartbeat(text, &hb)) << text;
    beats.push_back(hb);
  }
  std::fclose(f);
  std::remove(path.c_str());
  return beats;
}

/// What a fleet run returned: {exit code, merged stdout bytes}.
struct FleetRun {
  int rc = -1;
  std::string output;
};

/// The worker end of one connection, run on its own thread.
using WorkerFn = std::function<void(int fd)>;

/// Connects to the coordinator listening on `port`, retrying while it
/// has not started to listen yet; -1 after about 5 s.
int connect_when_listening(unsigned port) {
  for (int attempt = 0; attempt < 5000; ++attempt) {
    const int fd = tcp_connect("127.0.0.1", port);
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

/// Runs the fleet against one thread per entry of `workers`, each handed
/// its end of a socketpair — or, when opt.listen_port is set, its TCP
/// connection to the listening coordinator.
FleetRun run_fleet_with(const std::vector<WorkerFn>& workers,
                        FleetOptions opt = {}) {
  std::vector<std::thread> threads;
  opt.workers = static_cast<unsigned>(workers.size());
  for (const auto& worker : workers) {
    if (opt.listen_port != 0) {
      threads.emplace_back([port = opt.listen_port, worker] {
        worker(connect_when_listening(port));
      });
      continue;
    }
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    opt.preconnected_fds.push_back(sv[0]);
    threads.emplace_back([fd = sv[1], worker] { worker(fd); });
  }
  FleetRun result;
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  result.rc = run_fleet(opt, out);
  for (auto& th : threads) th.join();
  std::rewind(out);
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, out)) > 0)
    result.output.append(buf, n);
  std::fclose(out);
  return result;
}

/// Runs the fleet against one scripted worker per entry of `scripts`.
FleetRun run_scripted_fleet(std::size_t total,
                            const std::vector<WorkerScript>& scripts,
                            FleetOptions opt = {}) {
  std::vector<WorkerFn> workers;
  for (const auto& script : scripts)
    workers.push_back(
        [total, script](int fd) { run_worker(fd, total, script); });
  return run_fleet_with(workers, std::move(opt));
}

TEST(FleetTest, MergesSpecOrderedOutputFromConcurrentWorkers) {
  const auto run = run_scripted_fleet(12, {{}, {}, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(12));
}

// The multi-host path: the coordinator accepts its workers over TCP
// (`--listen=PORT`) instead of being handed socketpairs, and merges the
// same bytes. A port the kernel just handed out for port 0 is free.
TEST(FleetTest, ListenAcceptsTcpWorkersAndMergesTheSameBytes) {
  constexpr std::size_t kTotal = 12;
  const auto pair_run = run_scripted_fleet(kTotal, {{}, {}});
  const int probe = tcp_listen(0);
  ASSERT_GE(probe, 0);
  FleetOptions opt;
  opt.listen_port = tcp_local_port(probe);
  ::close(probe);
  ASSERT_NE(opt.listen_port, 0u);
  const auto tcp_run = run_scripted_fleet(kTotal, {{}, {}}, opt);
  EXPECT_EQ(tcp_run.rc, 0);
  EXPECT_EQ(tcp_run.output, pair_run.output);
  EXPECT_EQ(tcp_run.output, expected_output(kTotal));
}

TEST(FleetTest, SingleWorkerFleetMatches) {
  const auto run = run_scripted_fleet(5, {{}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(5));
}

TEST(FleetTest, WorkerDeathMidSweepRecoversByteIdentical) {
  // The acceptance bar: one worker dies mid-stream; the survivor drains
  // the released lease and the merged bytes are exactly the undisturbed
  // run's.
  WorkerScript dies;
  dies.die_after = 2;
  const auto run = run_scripted_fleet(10, {dies, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(10));
}

TEST(FleetTest, AllButOneWorkerDyingStillCompletes) {
  WorkerScript dies_now;
  dies_now.die_after = 0;  // dies on its first lease, emitting nothing
  const auto run = run_scripted_fleet(8, {dies_now, dies_now, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(8));
}

TEST(FleetTest, EveryWorkerDyingFailsTheRun) {
  WorkerScript dies;
  dies.die_after = 1;
  const auto run = run_scripted_fleet(10, {dies, dies});
  EXPECT_NE(run.rc, 0);  // preconnected mode has no respawn: fleet fails
}

TEST(FleetTest, DuplicateRecordsAreDiscardedFirstCompleteWins) {
  WorkerScript dup;
  dup.duplicate_first = true;
  const auto run = run_scripted_fleet(6, {dup, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(6));  // the dup never reaches out
}

TEST(FleetTest, TruncatedDeathFrameIsDiscardedNotMerged) {
  WorkerScript truncates;
  truncates.die_after = 1;
  truncates.truncate_on_death = true;
  const auto run = run_scripted_fleet(8, {truncates, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(8));
}

TEST(FleetTest, OversizedFrameDropsTheWorkerLikeADeath) {
  // The flooder takes a lease, streams a frame past the cap and waits for
  // the coordinator. With no heartbeat deadline to end the wait, only the
  // cap can: the coordinator must drop the flooder, release its lease to
  // the survivor and still merge the exact bytes.
  constexpr std::size_t kTotal = 6;
  std::latch leased(1);
  const WorkerFn flooder = [&leased](int fd) {
    FdTransport t(fd);
    std::string line;
    std::optional<FleetMsg> lease;
    if (t.send_line(format_hello(kBench, kTotal)) && t.recv_line(&line) &&
        t.send_line(format_pull()) && t.recv_line(&line))
      lease = parse_fleet_msg(line);
    leased.count_down();
    if (!lease || lease->type != FleetMsg::Type::kLease) return;
    const std::string chunk(std::size_t{1} << 20, 'x');
    for (std::size_t sent = 0; sent <= FrameSplitter::kMaxFrameBytes;
         sent += chunk.size())
      if (!t.send_raw(chunk)) return;
    t.recv_line(&line);  // returns once the coordinator closes the socket
  };
  WorkerScript survivor;
  survivor.hello_gate = &leased;
  FleetOptions opt;
  opt.tuning.heartbeat_deadline_ms = 3'600'000;
  const auto run = run_fleet_with(
      {flooder,
       [&survivor](int fd) { run_worker(fd, kTotal, survivor); }},
      opt);
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(kTotal));
}

TEST(FleetTest, EmptySweepFinsEveryoneAndSucceeds) {
  const auto run = run_scripted_fleet(0, {{}, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(run.output.empty());
}

// An empty sweep is done on the first hello. A worker whose hello is read
// only after that gets fin as its first line, in place of welcome, and
// must take it as a clean, empty finish: answering it with a pull would
// block both sides. The latch holds the second hello until the first
// worker has read its fin.
TEST(FleetTest, HelloAfterTheSweepFinishedIsAnsweredWithFin) {
  std::latch first_fin(1);
  WorkerScript first, late;
  first.fin_seen = &first_fin;
  late.hello_gate = &first_fin;
  const auto run = run_scripted_fleet(0, {first, late});
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(run.output.empty());
}

// The same ordering against the real worker loop.
TEST(FleetTest, PullWorkerTakesFinInPlaceOfWelcomeAsACleanFinish) {
  std::latch first_fin(1);
  WorkerScript first;
  first.fin_seen = &first_fin;
  bool ok = false, leased = true, lost = true;
  const auto run = run_fleet_with(
      {[&](int fd) { run_worker(fd, 0, first); },
       [&](int fd) {
         first_fin.wait();
         PullWorker worker(Endpoint{true, fd, {}, 0}, kBench, 0);
         ok = worker.ok();
         leased = worker.next_lease().has_value();
         lost = worker.transport_lost();
       }});
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(ok);
  EXPECT_FALSE(leased);
  EXPECT_FALSE(lost);
}

TEST(FleetTest, LeaseLogRecordsLeasedAndDoneEvents) {
  const std::string log_path = ::testing::TempDir() + "fleet_test_lease.log";
  std::remove(log_path.c_str());
  FleetOptions opt;
  opt.lease_log = log_path;
  const auto run = run_scripted_fleet(6, {{}, {}}, opt);
  EXPECT_EQ(run.rc, 0);

  std::FILE* f = std::fopen(log_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::size_t leased = 0, done = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    std::string s(line);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    LeaseEvent ev;
    ASSERT_TRUE(parse_lease_event(s, &ev)) << s;
    if (ev.state == "leased") ++leased;
    if (ev.state == "done") ++done;
  }
  std::fclose(f);
  EXPECT_GT(leased, 0u);
  EXPECT_EQ(done, 2u);  // one per worker at teardown
  std::remove(log_path.c_str());
}

// Real pull workers under --heartbeat: each slot's tee opens with the
// welcome beat (done=0), never counts backwards, carries the sweep size
// as its total, and ends on exactly the records its worker sent. At the
// default 1 s cadence the welcome beat is the only done=0 beat; at 1 ms
// the periodic beats interleave with the per-record ones.
TEST(FleetTest, HeartbeatTeesEndOnEachWorkersFinalCount) {
  constexpr std::size_t kTotal = 24;
  constexpr unsigned kWorkers = 2;
  const std::string tee = ::testing::TempDir() + "fleet_test_hb";
  for (const unsigned hb_ms : {1000u, 1u}) {
    SCOPED_TRACE(hb_ms);
    FleetOptions opt;
    opt.heartbeat_path = tee;
    opt.tuning.heartbeat_interval_ms = hb_ms;
    std::latch welcomed(kWorkers);
    std::vector<std::size_t> sent(kWorkers, 0);
    std::vector<WorkerFn> workers;
    for (unsigned k = 0; k < kWorkers; ++k)
      workers.push_back([&, k](int fd) {
        PullWorker worker(Endpoint{true, fd, {}, 0}, kBench, kTotal);
        // Both slots are welcomed before either pulls, so both tee.
        welcomed.arrive_and_wait();
        while (const auto lease = worker.next_lease())
          for (std::size_t idx = lease->lo; idx < lease->hi; ++idx) {
            ASSERT_TRUE(worker.emit_record(record_line(idx), idx));
            ++sent[k];
          }
      });
    const auto run = run_fleet_with(workers, opt);
    EXPECT_EQ(run.rc, 0);
    EXPECT_EQ(run.output, expected_output(kTotal));
    std::size_t summed = 0;
    for (unsigned k = 0; k < kWorkers; ++k) {
      SCOPED_TRACE(k);
      const std::string slot = std::to_string(k);
      const auto beats = read_tee(tee + "." + slot);
      ASSERT_FALSE(beats.empty());
      EXPECT_EQ(beats.front().done, 0u);
      EXPECT_EQ(beats.front().last_spec, -1);
      for (std::size_t b = 0; b < beats.size(); ++b) {
        EXPECT_EQ(beats[b].total, kTotal);
        EXPECT_EQ(beats[b].shard, 'w' + slot);
        if (b > 0) {
          EXPECT_GE(beats[b].done, beats[b - 1].done);
        }
      }
      EXPECT_EQ(beats.back().done, sent[k]);
      summed += beats.back().done;
    }
    EXPECT_EQ(summed, kTotal);
  }
}

// The sweep is done when the last record arrives, so that worker's last
// beat can reach the coordinator after fin. The teardown drain still
// tees it: the tee ends on the worker's final count.
TEST(FleetTest, BeatAfterFinStillReachesTheTee) {
  const std::string tee = ::testing::TempDir() + "fleet_test_late_hb";
  FleetOptions opt;
  opt.heartbeat_path = tee;
  WorkerScript late;
  late.beat_after_fin = true;
  const auto run = run_scripted_fleet(5, {late}, opt);
  EXPECT_EQ(run.rc, 0);
  const auto beats = read_tee(tee + ".0");
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].done, 5u);
}

// A worker whose beats stopped early leaves its tee short of what it
// delivered; at teardown the coordinator ends the tee on the records it
// merged from the slot.
TEST(FleetTest, MutedWorkersTeeEndsOnWhatItsSlotMerged) {
  const std::string tee = ::testing::TempDir() + "fleet_test_muted_hb";
  FleetOptions opt;
  opt.heartbeat_path = tee;
  WorkerScript muted;
  muted.beat_on_welcome = true;
  const auto run = run_scripted_fleet(5, {muted}, opt);
  EXPECT_EQ(run.rc, 0);
  const auto beats = read_tee(tee + ".0");
  ASSERT_EQ(beats.size(), 2u);
  EXPECT_EQ(beats[0].done, 0u);
  EXPECT_EQ(beats[1].done, 5u);
  EXPECT_EQ(beats[1].total, 5u);
  EXPECT_EQ(beats[1].last_spec, 4);
  EXPECT_EQ(beats[1].shard, "w0");
}

TEST(FleetTest, ResumeLeasesOnlyTheGapsAndCompletesTheStore) {
  // Store holds indices 0,1,4 of a 6-point sweep (plus a truncated tail
  // — a previous fleet died mid-write). The resumed fleet must re-emit
  // the recovered records, lease only {2,3,5}, and produce bytes
  // identical to an undisturbed complete run.
  const std::string store = ::testing::TempDir() + "fleet_test_resume.ndjson";
  {
    std::FILE* f = std::fopen(store.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (const std::size_t idx : {0, 1, 4}) {
      const std::string l = record_line(idx);
      std::fwrite(l.data(), 1, l.size(), f);
      std::fputc('\n', f);
    }
    const std::string half = record_line(5).substr(0, 25);
    std::fwrite(half.data(), 1, half.size(), f);  // no terminator
    std::fclose(f);
  }

  std::vector<Lease> leases;
  std::mutex mu;
  FleetOptions opt;
  opt.resume_store = store;
  const auto run = run_fleet_with(
      {[&](int fd) { run_worker(fd, 6, WorkerScript{}, &leases, &mu); }},
      opt);
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(6));

  // The worker must never have been leased a recovered index.
  for (const auto& l : leases)
    for (std::size_t idx = l.lo; idx < l.hi; ++idx)
      EXPECT_TRUE(idx == 2 || idx == 3 || idx == 5)
          << "re-leased recovered index " << idx;
  std::remove(store.c_str());
}

TEST(FleetTest, MismatchedResumeStoreFailsTheRun) {
  // A store whose indices exceed the sweep is the wrong store — resuming
  // over it silently would bless a mismatched merge.
  const std::string store = ::testing::TempDir() + "fleet_test_wrong.ndjson";
  {
    std::FILE* f = std::fopen(store.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string l = record_line(9);  // sweep below has 4 points
    std::fwrite(l.data(), 1, l.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  FleetOptions opt;
  opt.resume_store = store;
  const auto run = run_scripted_fleet(4, {{}}, opt);
  EXPECT_NE(run.rc, 0);
  std::remove(store.c_str());
}

}  // namespace
}  // namespace dsm::shard
