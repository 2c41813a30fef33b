// result_sink.hpp — spec-order aggregation of per-configuration results.
//
// Worker threads complete configurations in arbitrary order.
// OrderedEmitter restores spec order as a stream: put(i, r) releases
// results to an emit callback in strictly increasing index order,
// buffering only the out-of-order completions. It is the spec-order
// serializer under ExperimentRunner::map_reduce — with in-worker
// reduction in front of it, nothing ever buffers more than the reduced
// records still waiting for their turn. It is the piece that makes
// `--threads=N` output bit-identical to `--threads=1`.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace dsm::driver {

/// Streaming spec-order serializer: results arrive via put() in any order
/// from any thread; `emit` fires in strictly increasing index order, on
/// whichever worker completed the next-in-order result (under the sink
/// lock, so emissions never interleave). Only results that finished ahead
/// of a straggler are buffered — and with reduction applied before put(),
/// those are collapsed records, not raw RunSummaries.
template <typename R>
class OrderedEmitter {
 public:
  using Emit = std::function<void(std::size_t, R&&)>;

  OrderedEmitter(std::size_t count, Emit emit)
      : slots_(count), emit_(std::move(emit)) {}

  void put(std::size_t index, R value) {
    std::lock_guard<std::mutex> lock(mu_);
    DSM_ASSERT(index < slots_.size());
    DSM_ASSERT(index >= next_);
    DSM_ASSERT(!slots_[index].has_value());
    slots_[index].emplace(std::move(value));
    while (next_ < slots_.size() && slots_[next_].has_value()) {
      emit_(next_, std::move(*slots_[next_]));
      slots_[next_].reset();
      ++next_;
    }
  }

  /// True once every slot has been emitted.
  bool drained() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_ == slots_.size();
  }

 private:
  mutable std::mutex mu_;
  std::size_t next_ = 0;
  std::vector<std::optional<R>> slots_;
  Emit emit_;
};

}  // namespace dsm::driver
