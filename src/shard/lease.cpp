#include "shard/lease.hpp"

#include <algorithm>

namespace dsm::shard {

std::uint64_t respawn_backoff_ms(const FleetTuning& tuning, unsigned attempt) {
  if (attempt == 0) attempt = 1;
  // Shifting past 63 bits is UB; the cap would have kicked in long before.
  const unsigned shift = std::min(attempt - 1, 62u);
  const std::uint64_t raw = tuning.backoff_base_ms << shift;
  // Detect shift overflow (raw wrapped smaller than base) as "cap".
  if (raw < tuning.backoff_base_ms) return tuning.backoff_max_ms;
  return std::min(raw, tuning.backoff_max_ms);
}

LeaseTable::LeaseTable(std::size_t total, const FleetTuning& tuning)
    : tuning_(tuning), state_(total, State::kPending) {
  for (std::size_t i = 0; i < total; ++i) pending_.insert(pending_.end(), i);
}

void LeaseTable::mark_done(std::size_t index) {
  if (index >= state_.size() || state_[index] == State::kDone) return;
  if (state_[index] == State::kPending) pending_.erase(index);
  state_[index] = State::kDone;
  ++done_;
}

bool LeaseTable::is_done(std::size_t index) const {
  return index < state_.size() && state_[index] == State::kDone;
}

LeaseTable::WorkerState& LeaseTable::worker_state(unsigned worker) {
  if (worker >= workers_.size()) workers_.resize(worker + 1);
  return workers_[worker];
}

std::optional<Lease> LeaseTable::grant(unsigned worker, std::uint64_t now_ms,
                                       unsigned live_workers) {
  WorkerState& ws = worker_state(worker);
  ws.last_heartbeat_ms = now_ms;
  ws.seen = true;
  if (pending_.empty()) return std::nullopt;
  const unsigned live = std::max(live_workers, 1u);
  const std::size_t chunk =
      std::clamp<std::size_t>(pending_.size() / (2 * live), 1, 16);
  // First contiguous run of pending indices starting at the minimum —
  // contiguous leases keep the coordinator's reorder buffer small (the
  // next-to-emit index is usually inside the oldest lease).
  auto it = pending_.begin();
  const std::size_t lo = *it;
  std::size_t hi = lo;
  while (it != pending_.end() && *it == hi && hi - lo < chunk) {
    ws.outstanding.insert(*it);
    state_[*it] = State::kLeased;
    it = pending_.erase(it);
    ++hi;
  }
  return Lease{lo, hi};
}

void LeaseTable::heartbeat(unsigned worker, std::uint64_t now_ms) {
  WorkerState& ws = worker_state(worker);
  ws.last_heartbeat_ms = now_ms;
  ws.seen = true;
}

bool LeaseTable::complete(std::size_t index) {
  if (index >= state_.size() || state_[index] == State::kDone) return false;
  if (state_[index] == State::kPending) pending_.erase(index);
  state_[index] = State::kDone;
  ++done_;
  // Whoever held the lease (if anyone) no longer owes this index.
  for (auto& ws : workers_) ws.outstanding.erase(index);
  return true;
}

std::vector<std::size_t> LeaseTable::release(unsigned worker) {
  std::vector<std::size_t> freed;
  if (worker >= workers_.size()) return freed;
  WorkerState& ws = workers_[worker];
  for (const std::size_t idx : ws.outstanding) {
    state_[idx] = State::kPending;
    pending_.insert(idx);
    freed.push_back(idx);
  }
  ws.outstanding.clear();
  return freed;
}

bool LeaseTable::worker_leased(unsigned worker) const {
  return worker < workers_.size() && !workers_[worker].outstanding.empty();
}

std::size_t LeaseTable::outstanding(unsigned worker) const {
  return worker < workers_.size() ? workers_[worker].outstanding.size() : 0;
}

std::vector<unsigned> LeaseTable::expired(std::uint64_t now_ms) const {
  std::vector<unsigned> dead;
  for (unsigned w = 0; w < workers_.size(); ++w) {
    const WorkerState& ws = workers_[w];
    if (ws.outstanding.empty()) continue;  // parked workers never expire
    if (now_ms - ws.last_heartbeat_ms >= tuning_.heartbeat_deadline_ms)
      dead.push_back(w);
  }
  return dead;
}

std::optional<std::uint64_t> LeaseTable::next_deadline_ms() const {
  std::optional<std::uint64_t> next;
  for (const auto& ws : workers_) {
    if (ws.outstanding.empty()) continue;
    const std::uint64_t at = ws.last_heartbeat_ms +
                             tuning_.heartbeat_deadline_ms;
    if (!next || at < *next) next = at;
  }
  return next;
}

}  // namespace dsm::shard
