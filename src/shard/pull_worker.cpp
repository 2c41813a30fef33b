#include "shard/pull_worker.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "shard/heartbeat.hpp"

namespace dsm::shard {

PullWorker::PullWorker(const Endpoint& endpoint, std::string bench,
                       std::size_t total)
    : bench_(std::move(bench)), total_(total) {
  const int fd = connect_endpoint(endpoint);
  if (fd < 0) return;
  transport_ = std::make_unique<FdTransport>(fd);
  start_ms_ = steady_ms();
  if (!transport_->send_line(
          format_hello(bench_, static_cast<std::uint64_t>(total_)))) {
    std::fprintf(stderr, "pull worker: coordinator rejected hello\n");
    return;
  }
  std::string line;
  if (!transport_->recv_line(&line)) {
    std::fprintf(stderr, "pull worker: connection closed before welcome\n");
    return;
  }
  const auto msg = parse_fleet_msg(line);
  if (msg && msg->type == FleetMsg::Type::kFin) {
    // The sweep finished before the coordinator read this hello: a clean,
    // empty finish — no lease will ever come, so no heartbeats either.
    ok_ = true;
    finished_ = true;
    return;
  }
  if (!msg || msg->type != FleetMsg::Type::kWelcome) {
    std::fprintf(stderr, "pull worker: expected welcome or fin, got: %s\n",
                 line.c_str());
    return;
  }
  worker_id_ = static_cast<unsigned>(msg->worker);
  if (msg->hb_ms > 0) hb_interval_ms_ = msg->hb_ms;
  ok_ = true;
  beat();  // done=0: "alive, no progress yet" beats "no tee"
  beater_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(stop_mu_);
    while (!stop_) {
      stop_cv_.wait_for(lock, std::chrono::milliseconds(hb_interval_ms_));
      if (stop_) break;
      lock.unlock();
      beat();
      lock.lock();
    }
  });
}

PullWorker::~PullWorker() { stop_beater(); }

void PullWorker::stop_beater() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (beater_.joinable()) beater_.join();
}

void PullWorker::beat() {
  Heartbeat hb;
  hb.bench = bench_;
  // Built by append: GCC 12 flags `"w" + std::to_string(...)` with a
  // false -Wrestrict.
  hb.shard = std::string(1, 'w').append(std::to_string(worker_id_));
  hb.total = total_;
  // Send under mu_: the periodic and per-record beats then leave in the
  // order their counters were read, so the coordinator's tee ends on
  // this worker's final count.
  std::lock_guard<std::mutex> lock(mu_);
  if (muted_) return;
  hb.done = done_;
  hb.last_spec = last_spec_;
  transport_->send_line(stamp_heartbeat(hb, start_ms_));
}

std::optional<Lease> PullWorker::next_lease() {
  fault_ = FaultKind::kNone;
  fault_spec_ = 0;
  if (!ok_ || lost_ || finished_) return std::nullopt;
  if (!transport_->send_line(format_pull())) {
    lost_ = true;
    return std::nullopt;
  }
  std::string line;
  if (!transport_->recv_line(&line)) {
    lost_ = true;
    return std::nullopt;
  }
  const auto msg = parse_fleet_msg(line);
  if (!msg) {
    std::fprintf(stderr, "pull worker: bad coordinator message: %s\n",
                 line.c_str());
    lost_ = true;
    return std::nullopt;
  }
  if (msg->type == FleetMsg::Type::kFin) return std::nullopt;
  if (msg->type != FleetMsg::Type::kLease || msg->hi < msg->lo) {
    std::fprintf(stderr, "pull worker: expected lease/fin, got: %s\n",
                 line.c_str());
    lost_ = true;
    return std::nullopt;
  }
  fault_ = msg->fault;
  fault_spec_ = static_cast<std::size_t>(msg->fault_spec);
  return Lease{static_cast<std::size_t>(msg->lo),
               static_cast<std::size_t>(msg->hi)};
}

bool PullWorker::emit_record(const std::string& line,
                             std::size_t spec_index) {
  if (!transport_->send_line(line)) {
    lost_ = true;
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    last_spec_ = static_cast<std::int64_t>(spec_index);
  }
  beat();  // per-record progress beat; the timer covers long configs
  return true;
}

void PullWorker::fault_exit() {
  // No teardown on purpose: a crash does not join threads first.
  ::_exit(kFaultExitCode);
}

void PullWorker::fault_hang() {
  // A wedged process beats no heartbeats — that is precisely what makes
  // the coordinator's deadline the only way out.
  stop_beater();
  for (;;) ::pause();
}

void PullWorker::fault_truncate(const std::string& line) {
  transport_->send_raw(line.substr(0, line.size() / 2));
  ::_exit(kFaultExitCode);
}

void PullWorker::drop_heartbeats() {
  std::lock_guard<std::mutex> lock(mu_);
  muted_ = true;
}

}  // namespace dsm::shard
