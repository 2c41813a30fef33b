// experiment_runner.hpp — a std::thread pool over independent experiment
// configurations.
//
// The sweeps in bench/ are embarrassingly parallel: every configuration
// builds its own Machine, owns its own RNG streams (seeded from the spec
// point, see sweep_spec.hpp), and shares nothing mutable. The runner fans
// the expanded spec out over N workers pulling from an atomic work queue
// and emits results in spec order via OrderedEmitter, so output is
// bit-identical to a serial loop.
//
// Failure semantics: the first configuration to throw stops the pool from
// claiming further work; after all workers have parked, the exception is
// rethrown on the caller's thread. No deadlock, no std::terminate.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "driver/result_sink.hpp"
#include "driver/sweep_spec.hpp"

namespace dsm::driver {

class ExperimentRunner {
 public:
  /// `threads` = worker count; 0 means one per hardware thread. A runner
  /// with 1 thread executes everything inline on the caller's thread.
  explicit ExperimentRunner(unsigned threads = 1);

  /// 0 -> std::thread::hardware_concurrency() (at least 1).
  static unsigned resolve_threads(unsigned requested);

  unsigned threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, count), blocking until all claimed work
  /// has finished. Rethrows the first exception after the pool has
  /// stopped; work not yet claimed at that point is abandoned.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn) const;

  /// Streaming map with an in-worker reduction hook: `run` produces the
  /// raw per-configuration result (a RunSummary, typically) on a pool
  /// worker, `reduce` collapses it *on the same worker* — the raw result
  /// is destroyed right there, which is what bounds per-configuration
  /// memory on paper-scale sweeps — and `emit` receives the reduced
  /// results one at a time in position order (under a lock, so emissions
  /// never interleave). Nothing buffers more than the reduced records
  /// still waiting on a straggler.
  ///
  /// `points` need not satisfy points[i].index == i: a shard of a larger
  /// sweep keeps its global spec indices in the points while this method
  /// orders by position within `points`.
  template <typename Raw, typename R>
  void map_reduce(
      const std::vector<SpecPoint>& points,
      const std::function<Raw(const SpecPoint&)>& run,
      const std::function<R(const SpecPoint&, Raw&&)>& reduce,
      const std::function<void(const SpecPoint&, R&&)>& emit) const {
    OrderedEmitter<R> sink(points.size(), [&](std::size_t i, R&& r) {
      emit(points[i], std::move(r));
    });
    run_indexed(points.size(), [&](std::size_t i) {
      Raw raw = run(points[i]);
      sink.put(i, reduce(points[i], std::move(raw)));
    });
  }

 private:
  unsigned threads_;
};

}  // namespace dsm::driver
