#include "shard/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <optional>

#include "shard/heartbeat.hpp"
#include "shard/resume.hpp"
#include "shard/shard_plan.hpp"
#include "shard/stream_sink.hpp"
#include "shard/transport.hpp"

namespace dsm::shard {
namespace {

bool is_heartbeat(const std::string& line) {
  return line.rfind("{\"hb\":1,", 0) == 0;
}

struct Slot {
  pid_t pid = -1;
  int fd = -1;
  FrameSplitter frames;
  bool hello_seen = false;
  bool parked = false;        ///< pulled, waiting for work to free up
  bool fin_sent = false;
  bool down = false;          ///< permanently out: no fd, no respawn
  unsigned respawns = 0;
  std::uint64_t respawn_at_ms = 0;  ///< nonzero: respawn scheduled
  std::uint64_t spawned_ms = 0;     ///< for the pre-hello deadline
  std::FILE* hb_file = nullptr;     ///< FILE.<slot> heartbeat tee
  Heartbeat last_beat;              ///< the last beat teed, parsed
  std::uint64_t merged = 0;         ///< records merged from this slot
  std::int64_t last_merged = -1;    ///< spec index of the last of them
};

class Fleet {
 public:
  Fleet(const FleetOptions& opt, std::FILE* out) : opt_(opt), out_(out) {}

  ~Fleet() {
    for (auto& s : slots_) {
      if (s.fd >= 0) ::close(s.fd);
      if (s.hb_file != nullptr) std::fclose(s.hb_file);
    }
    if (lease_log_ != nullptr) std::fclose(lease_log_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  int run() {
    start_ms_ = steady_ms();
    if (!opt_.resume_store.empty()) {
      scan_ = scan_store(opt_.resume_store);
      if (!scan_.ok) {
        std::fprintf(stderr, "fleet: resume scan failed: %s\n",
                     scan_.error.c_str());
        return 1;
      }
      if (scan_.truncated_tail)
        std::fprintf(stderr,
                     "fleet: store has a truncated final record (%zu bytes) "
                     "— discarded, its index will be re-run\n",
                     scan_.tail.size());
    }
    if (!opt_.lease_log.empty()) {
      lease_log_ = std::fopen(opt_.lease_log.c_str(), "w");
      if (lease_log_ == nullptr)
        std::fprintf(stderr, "fleet: cannot open lease log %s (continuing)\n",
                     opt_.lease_log.c_str());
    }
    if (!start_workers()) return 1;
    loop();
    return teardown();
  }

 private:
  // --- worker lifecycle -------------------------------------------------

  bool start_workers() {
    slots_.resize(opt_.workers);
    const std::uint64_t now = steady_ms();
    if (!opt_.preconnected_fds.empty()) {
      if (opt_.preconnected_fds.size() != opt_.workers) {
        std::fprintf(stderr, "fleet: %zu preconnected fds for %u workers\n",
                     opt_.preconnected_fds.size(), opt_.workers);
        return false;
      }
      for (unsigned i = 0; i < opt_.workers; ++i) {
        slots_[i].fd = opt_.preconnected_fds[i];
        slots_[i].spawned_ms = now;
      }
      return true;
    }
    if (opt_.listen_port != 0) {
      listen_fd_ = tcp_listen(opt_.listen_port);
      if (listen_fd_ < 0) {
        std::fprintf(stderr, "fleet: listen on port %u: %s\n",
                     opt_.listen_port, std::strerror(errno));
        return false;
      }
      std::fprintf(stderr, "fleet: waiting for %u workers on port %u\n",
                   opt_.workers, tcp_local_port(listen_fd_));
      for (unsigned i = 0; i < opt_.workers; ++i) {
        const int fd = tcp_accept(listen_fd_);
        if (fd < 0) {
          std::fprintf(stderr, "fleet: accept: %s\n", std::strerror(errno));
          return false;
        }
        slots_[i].fd = fd;
        slots_[i].spawned_ms = steady_ms();
      }
      return true;
    }
    for (unsigned i = 0; i < opt_.workers; ++i)
      if (!spawn(i, now)) mark_down(i);
    return live_or_pending() > 0;
  }

  /// Forks slot i's worker and starts its handshake clock at `now`, the
  /// caller's time for this pass, so no check in the pass sees a spawn
  /// newer than its own `now`.
  bool spawn(unsigned i, std::uint64_t now) {
    Slot& s = slots_[i];
    int sv[2];
    // CLOEXEC on both ends: a forked sibling must not hold another
    // worker's socket open, or its death would never read as EOF. The
    // child's own end survives exec via dup2 (which clears the flag).
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      std::fprintf(stderr, "fleet: socketpair: %s\n", std::strerror(errno));
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fleet: fork: %s\n", std::strerror(errno));
      ::close(sv[0]);
      ::close(sv[1]);
      return false;
    }
    if (pid == 0) {
      // Child: the transport end becomes fd 3, then exec the worker.
      ::dup2(sv[1], 3);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(opt_.binary.c_str()));
      for (const auto& a : opt_.args)
        argv.push_back(const_cast<char*>(a.c_str()));
      static const char kPull[] = "--pull=fd:3";
      argv.push_back(const_cast<char*>(kPull));
      argv.push_back(nullptr);
      ::execvp(opt_.binary.c_str(), argv.data());
      std::fprintf(stderr, "fleet: execvp: %s\n", std::strerror(errno));
      ::_exit(127);
    }
    ::close(sv[1]);
    s.pid = pid;
    s.fd = sv[0];
    s.hello_seen = false;
    s.parked = false;
    s.fin_sent = false;
    s.respawn_at_ms = 0;
    s.spawned_ms = now;
    s.last_beat.done = 0;  // the replacement counts from 0
    return true;
  }

  void mark_down(unsigned i) {
    slots_[i].down = true;
    slots_[i].respawn_at_ms = 0;
  }

  /// Slots that can still produce work: connected, or respawn-scheduled.
  unsigned live_or_pending() const {
    unsigned n = 0;
    for (const auto& s : slots_)
      if (s.fd >= 0 || s.respawn_at_ms != 0) ++n;
    return n;
  }

  unsigned live_pullers() const {
    unsigned n = 0;
    for (const auto& s : slots_)
      if (!s.down) ++n;
    return std::max(n, 1u);
  }

  /// Worker death or normal exit: reap, release, maybe respawn.
  void disconnect(unsigned i, const char* why) {
    Slot& s = slots_[i];
    if (s.fd < 0) return;
    ::close(s.fd);
    s.fd = -1;
    s.parked = false;
    if (s.frames.has_partial()) {
      ++truncated_frames_;
      std::fprintf(stderr,
                   "fleet: worker %u died mid-record — discarding a "
                   "truncated %zu-byte frame (the index will be re-run)\n",
                   i, s.frames.partial().size());
      s.frames = FrameSplitter{};
    }
    if (s.pid > 0) {
      int status = 0;
      ::waitpid(s.pid, &status, 0);
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0 &&
          first_fail_code_ == 0)
        first_fail_code_ = WEXITSTATUS(status);
      s.pid = -1;
    }
    if (s.fin_sent) {  // normal drain
      mark_down(i);
      return;
    }
    ++deaths_;
    std::size_t freed = 0;
    if (table_) {
      const auto released = table_->release(i);
      freed = released.size();
    }
    std::fprintf(stderr,
                 "fleet: worker %u is dead (%s); released %zu leased "
                 "indices to survivors\n",
                 i, why, freed);
    log_event(i, "dead", 0, 0);
    // Respawn only in fork mode — the coordinator cannot restart a
    // remote or preconnected worker.
    const bool fork_mode =
        opt_.listen_port == 0 && opt_.preconnected_fds.empty();
    if (fork_mode && s.respawns < kMaxRespawns) {
      ++s.respawns;
      const std::uint64_t backoff =
          respawn_backoff_ms(opt_.tuning, s.respawns);
      s.respawn_at_ms = steady_ms() + backoff;
      std::fprintf(stderr,
                   "fleet: respawning worker %u in %llu ms (attempt %u/%u)\n",
                   i, static_cast<unsigned long long>(backoff), s.respawns,
                   kMaxRespawns);
      log_event(i, "retrying", 0, 0);
    } else {
      mark_down(i);
    }
  }

  /// SIGKILL a worker that missed its deadline, salvaging any complete
  /// records already in flight on the socket.
  void reap(unsigned i, const char* why) {
    Slot& s = slots_[i];
    if (s.fd < 0) return;
    if (s.pid > 0) ::kill(s.pid, SIGKILL);
    // Drain what already arrived: records completed before the death are
    // valid (content-derived) and keeping them shrinks the re-run.
    for (;;) {
      char buf[65536];
      const ssize_t n = ::recv(s.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) break;
      s.frames.feed(buf, static_cast<std::size_t>(n));
    }
    while (auto line = s.frames.next()) handle_line(i, *line, false);
    disconnect(i, why);
  }

  // --- protocol ---------------------------------------------------------

  void fail(const std::string& msg) {
    if (!failed_) {
      failed_ = true;
      fail_msg_ = msg;
    }
  }

  void log_event(unsigned worker, const char* state, std::uint64_t lo,
                 std::uint64_t hi) {
    if (lease_log_ == nullptr) return;
    LeaseEvent ev;
    ev.worker = worker;
    ev.state = state;
    ev.lo = lo;
    ev.hi = hi;
    ev.retries = slots_[worker].respawns;
    ev.wall_ms = steady_ms() - start_ms_;
    const std::string line = format_lease_event(ev);
    std::fwrite(line.data(), 1, line.size(), lease_log_);
    std::fputc('\n', lease_log_);
    std::fflush(lease_log_);
  }

  void on_hello(unsigned i, const FleetMsg& msg, std::uint64_t now) {
    Slot& s = slots_[i];
    if (!table_) {
      bench_ = msg.bench;
      table_.emplace(static_cast<std::size_t>(msg.total), opt_.tuning);
      if (!seed_from_store()) return;
      if (opt_.fault != FaultKind::kNone &&
          opt_.fault_spec >= table_->total())
        std::fprintf(stderr,
                     "fleet: --inject-fault spec %zu is outside the %zu-"
                     "point sweep; the fault will never fire\n",
                     opt_.fault_spec, table_->total());
    } else if (msg.bench != bench_ || msg.total != table_->total()) {
      fail("workers disagree on the sweep: '" + bench_ + "' (" +
           std::to_string(table_->total()) + " points) vs '" + msg.bench +
           "' (" + std::to_string(msg.total) + ")");
      return;
    }
    s.hello_seen = true;
    table_->heartbeat(i, now);
    if (!send_all(s.fd,
                  format_welcome(i, opt_.tuning.heartbeat_interval_ms) + "\n"))
      disconnect(i, "closed during welcome");
  }

  bool seed_from_store() {
    for (const auto& [idx, line] : scan_.records) {
      if (idx >= table_->total()) {
        fail("resume store holds spec index " + std::to_string(idx) +
             " but the sweep has only " + std::to_string(table_->total()) +
             " points — wrong store for this run");
        return false;
      }
      table_->mark_done(idx);
      ready_.emplace(idx, line);
    }
    if (!scan_.records.empty()) {
      if (!scan_.bench.empty() && scan_.bench != bench_) {
        fail("resume store is for bench '" + scan_.bench +
             "', this run is '" + bench_ + "'");
        return false;
      }
      std::fprintf(stderr,
                   "fleet: resume: %zu/%zu records recovered from store, "
                   "%zu gaps to run\n",
                   scan_.records.size(), table_->total(),
                   table_->total() - scan_.records.size());
    }
    drain_ready();
    return true;
  }

  void try_grant(unsigned i, std::uint64_t now) {
    Slot& s = slots_[i];
    if (!table_ || !s.hello_seen) {
      reap(i, "pulled before hello");
      return;
    }
    const auto lease = table_->grant(i, now, live_pullers());
    if (!lease) {
      s.parked = true;  // answered later: a release frees work, or fin
      return;
    }
    s.parked = false;
    FaultKind fault = FaultKind::kNone;
    std::uint64_t fault_spec = 0;
    if (opt_.fault != FaultKind::kNone && !fault_armed_ &&
        opt_.fault_spec >= lease->lo && opt_.fault_spec < lease->hi) {
      fault_armed_ = true;
      fault = opt_.fault;
      fault_spec = opt_.fault_spec;
      std::fprintf(stderr, "fleet: arming %s@%zu on worker %u\n",
                   fault_name(fault), opt_.fault_spec, i);
    }
    log_event(i, "leased", lease->lo, lease->hi);
    if (!send_all(s.fd,
                  format_lease(lease->lo, lease->hi, fault, fault_spec) + "\n"))
      disconnect(i, "closed during lease grant");
  }

  void on_record(unsigned i, const std::string& line) {
    const auto parsed = parse_record(line);
    if (!parsed) {
      reap(i, "sent an unparsable record");
      return;
    }
    if (!table_ || parsed->bench != bench_ ||
        parsed->record.spec_index >= table_->total()) {
      reap(i, "sent a record outside the sweep");
      return;
    }
    if (!table_->complete(parsed->record.spec_index)) {
      ++duplicates_;  // first-complete-wins: a re-leased index came twice
      return;
    }
    ++slots_[i].merged;
    slots_[i].last_merged =
        static_cast<std::int64_t>(parsed->record.spec_index);
    ready_.emplace(parsed->record.spec_index, line);
    drain_ready();
  }

  void drain_ready() {
    auto it = ready_.begin();
    while (it != ready_.end() && it->first == next_emit_) {
      std::fwrite(it->second.data(), 1, it->second.size(), out_);
      std::fputc('\n', out_);
      it = ready_.erase(it);
      ++next_emit_;
    }
  }

  /// A worker's in-band beat: restarts its liveness clock, goes to its
  /// FILE.<slot> tee, and shows on stderr when its count moved.
  void on_heartbeat(unsigned i, const std::string& line,
                    std::uint64_t now) {
    Heartbeat hb;
    Slot& s = slots_[i];
    // Telemetry is best-effort; a beat before hello is no worker's.
    if (!s.hello_seen || !table_ || !parse_heartbeat(line, &hb)) return;
    table_->heartbeat(i, now);
    const bool moved = hb.done != s.last_beat.done;
    s.last_beat = hb;
    tee(i, line);
    if (moved) {
      // hb.total is the sweep size; the worker's share is unknown, so
      // the fleet-wide count comes from the lease table.
      std::fprintf(stderr,
                   "fleet: worker %u has done %llu (fleet %zu/%zu; last "
                   "spec %lld, %llu ms, rss %llu KB)\n",
                   i, static_cast<unsigned long long>(hb.done),
                   table_->done_count(), table_->total(),
                   static_cast<long long>(hb.last_spec),
                   static_cast<unsigned long long>(hb.wall_ms),
                   static_cast<unsigned long long>(hb.maxrss_kb));
    }
  }

  /// Appends `line` to slot i's FILE.<slot> tee, opening it on first use.
  void tee(unsigned i, const std::string& line) {
    Slot& s = slots_[i];
    if (opt_.heartbeat_path.empty()) return;
    if (s.hb_file == nullptr) {
      const std::string path = opt_.heartbeat_path + "." + std::to_string(i);
      s.hb_file = std::fopen(path.c_str(), "w");
    }
    if (s.hb_file != nullptr) {
      std::fwrite(line.data(), 1, line.size(), s.hb_file);
      std::fputc('\n', s.hb_file);
      std::fflush(s.hb_file);
    }
  }

  /// Ends slot i's tee on the records merged from the slot, unless its
  /// last beat already says so. A worker's own count can stop short: a
  /// muted worker's beats stop, and a respawned slot's replacement
  /// counts only its own records. (A slot with no tee never beat: every
  /// welcomed worker beats once on welcome.)
  void tee_final_beat(unsigned i) {
    Slot& s = slots_[i];
    if (s.hb_file == nullptr || s.last_beat.done == s.merged) return;
    Heartbeat hb = s.last_beat;
    hb.done = s.merged;
    hb.last_spec = s.last_merged;
    tee(i, format_heartbeat(hb));
  }

  /// One line off a worker's stream. `allow_control` is false while
  /// salvaging a killed worker's backlog — records still count, but it
  /// gets no new lease.
  void handle_line(unsigned i, const std::string& line, bool allow_control) {
    const std::uint64_t now = steady_ms();
    if (is_fleet_msg(line)) {
      if (!allow_control) return;
      const auto msg = parse_fleet_msg(line);
      if (!msg) {
        reap(i, "sent an unparsable fleet message");
        return;
      }
      switch (msg->type) {
        case FleetMsg::Type::kHello: on_hello(i, *msg, now); break;
        case FleetMsg::Type::kPull: try_grant(i, now); break;
        default: reap(i, "sent a coordinator-only message"); break;
      }
      return;
    }
    if (is_heartbeat(line)) {
      on_heartbeat(i, line, now);
      return;
    }
    on_record(i, line);
  }

  void read_slot(unsigned i) {
    Slot& s = slots_[i];
    char buf[65536];
    const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) {
      disconnect(i, "closed its connection");
      return;
    }
    s.frames.feed(buf, static_cast<std::size_t>(n));
    while (s.fd >= 0) {
      const auto line = s.frames.next();
      if (!line) break;
      handle_line(i, *line, true);
    }
    if (s.fd >= 0 && s.frames.oversized())
      reap(i, "sent a frame over the length limit");
  }

  // --- event loop -------------------------------------------------------

  void handle_timers(std::uint64_t now) {
    // Respawns that came due.
    for (unsigned i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.respawn_at_ms != 0 && now >= s.respawn_at_ms) {
        s.respawn_at_ms = 0;
        ++respawned_;
        if (!spawn(i, now)) mark_down(i);
      }
    }
    // Leased workers past their heartbeat deadline.
    if (table_)
      for (const unsigned w : table_->expired(now))
        if (slots_[w].fd >= 0) reap(w, "missed its heartbeat deadline");
    // Workers that never said hello within a deadline are equally dead.
    for (unsigned i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.fd >= 0 && !s.hello_seen && now >= handshake_deadline_ms(s))
        reap(i, "never completed the handshake");
    }
  }

  /// When a connected worker that has not said hello is declared dead.
  std::uint64_t handshake_deadline_ms(const Slot& s) const {
    return s.spawned_ms + opt_.tuning.heartbeat_deadline_ms;
  }

  void serve_parked(std::uint64_t now) {
    if (!table_ || table_->pending_count() == 0) return;
    for (unsigned i = 0; i < slots_.size(); ++i)
      if (slots_[i].fd >= 0 && slots_[i].parked) try_grant(i, now);
  }

  int poll_timeout(std::uint64_t now) const {
    std::optional<std::uint64_t> at;
    if (table_) at = table_->next_deadline_ms();
    for (const auto& s : slots_) {
      if (s.respawn_at_ms != 0 && (!at || s.respawn_at_ms < *at))
        at = s.respawn_at_ms;
      if (s.fd >= 0 && !s.hello_seen) {
        const std::uint64_t d = handshake_deadline_ms(s);
        if (!at || d < *at) at = d;
      }
    }
    if (!at) return 1000;
    if (*at <= now) return 0;
    return static_cast<int>(std::min<std::uint64_t>(*at - now, 1000));
  }

  void loop() {
    for (;;) {
      const std::uint64_t now = steady_ms();
      handle_timers(now);
      serve_parked(now);
      if (failed_) return;
      if (table_ && table_->all_done()) return;
      if (live_or_pending() == 0) {
        if (!table_)
          fail("no worker completed the handshake");
        else
          fail("all workers lost with " +
               std::to_string(table_->total() - table_->done_count()) +
               " spec indices incomplete and no respawns left");
        return;
      }
      std::vector<pollfd> pfds;
      std::vector<unsigned> owners;
      for (unsigned i = 0; i < slots_.size(); ++i)
        if (slots_[i].fd >= 0) {
          pfds.push_back({slots_[i].fd, POLLIN, 0});
          owners.push_back(i);
        }
      const int rc = ::poll(pfds.data(),
                            static_cast<nfds_t>(pfds.size()),
                            poll_timeout(now));
      if (rc < 0) {
        if (errno == EINTR) continue;
        fail(std::string("poll: ") + std::strerror(errno));
        return;
      }
      for (std::size_t k = 0; k < pfds.size(); ++k)
        if (pfds[k].revents != 0 && slots_[owners[k]].fd == pfds[k].fd)
          read_slot(owners[k]);
    }
  }

  int teardown() {
    const bool complete = table_ && table_->all_done() && !failed_;
    if (complete) {
      // fin everyone — parked workers are blocked in recv; busy workers
      // read it after their current (re-leased, duplicate) work drains.
      for (unsigned i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (s.fd < 0) continue;
        s.fin_sent = true;
        send_all(s.fd, format_fin() + "\n");
      }
      // Drain each socket to EOF. Beats still go to the tees; records can
      // only be duplicates (every index is done) and are dropped. Then
      // each tee ends on the records merged from its slot, so the tees
      // sum to the sweep less what a --resume store supplied. Workers
      // are independent, so a sequential blocking drain cannot deadlock.
      for (unsigned i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        while (s.fd >= 0) {
          char buf[65536];
          const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
          if (n < 0 && errno == EINTR) continue;
          if (n > 0) s.frames.feed(buf, static_cast<std::size_t>(n));
          while (const auto line = s.frames.next())
            if (is_heartbeat(*line)) on_heartbeat(i, *line, steady_ms());
          if (n <= 0 || s.frames.oversized()) {
            s.frames = FrameSplitter{};  // stragglers are not truncation
            disconnect(i, "drained");
          }
        }
        tee_final_beat(i);
        log_event(i, "done", 0, 0);
      }
      std::fflush(out_);
      if (deaths_ > 0 || duplicates_ > 0 || truncated_frames_ > 0)
        std::fprintf(stderr,
                     "fleet: recovered — %u worker deaths, %u respawns, "
                     "%zu duplicate records discarded, %zu truncated "
                     "frames discarded; merged output is complete\n",
                     deaths_, respawned_, duplicates_, truncated_frames_);
      std::fprintf(stderr, "fleet: %zu/%zu specs merged\n",
                   table_->done_count(), table_->total());
      return 0;
    }
    // Failure: kill whatever is left, reap, report.
    for (unsigned i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.pid > 0) ::kill(s.pid, SIGKILL);
      if (s.fd >= 0) {
        ::close(s.fd);
        s.fd = -1;
      }
      if (s.pid > 0) {
        int status = 0;
        ::waitpid(s.pid, &status, 0);
        s.pid = -1;
      }
    }
    std::fflush(out_);
    std::fprintf(stderr, "fleet: failed: %s\n",
                 failed_ ? fail_msg_.c_str() : "incomplete sweep");
    return first_fail_code_ != 0 ? first_fail_code_ : 1;
  }

  const FleetOptions& opt_;
  std::FILE* out_;
  std::vector<Slot> slots_;
  std::optional<LeaseTable> table_;
  std::string bench_;
  StoreScan scan_;
  std::map<std::size_t, std::string> ready_;  ///< reorder buffer
  std::size_t next_emit_ = 0;
  std::FILE* lease_log_ = nullptr;
  int listen_fd_ = -1;
  std::uint64_t start_ms_ = 0;
  bool fault_armed_ = false;
  bool failed_ = false;
  std::string fail_msg_;
  int first_fail_code_ = 0;
  unsigned deaths_ = 0;
  unsigned respawned_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t truncated_frames_ = 0;
};

}  // namespace

int run_fleet(const FleetOptions& opt, std::FILE* out) {
  if (opt.workers < 1 || opt.workers > kMaxShards) {
    std::fprintf(stderr, "fleet: bad worker count %u\n", opt.workers);
    return 1;
  }
  Fleet fleet(opt, out);
  return fleet.run();
}

}  // namespace dsm::shard
