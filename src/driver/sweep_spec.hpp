// sweep_spec.hpp — declarative description of an experiment sweep.
//
// Every figure/table harness in bench/ walks some product of
// app × nodes × variant × numeric-parameter. SweepSpec captures that
// product once; expand() enumerates it in a fixed "spec order" that the
// ExperimentRunner preserves in its output regardless of how many worker
// threads execute the configurations, and spec_seed() derives a
// deterministic RNG seed from each point's *content* (never from execution
// order), so parallel and serial runs produce identical numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.hpp"

namespace dsm::driver {

/// One point of a sweep: a single independent configuration.
struct SpecPoint {
  std::string app;       ///< application name; empty when not app-driven
  unsigned nodes = 0;    ///< processor count; 0 when not swept
  std::string detector;  ///< free-form variant label (detector, topology, ...)
  double threshold = 0.0;///< free-form numeric axis (threshold, factor, ...)
  /// Coherence protocol name ("msi" | "mesi" | "moesi"); empty when the
  /// sweep does not vary the protocol (the machine then runs its default,
  /// MESI). Kept out of the seed and label when empty so pre-existing
  /// sweeps keep their exact seeds and output.
  std::string protocol;
  apps::Scale scale = apps::Scale::kBench;
  std::size_t index = 0; ///< position in spec order (set by expand())
};

/// Cartesian product over app × nodes × detector × threshold × protocol
/// at one scale. An empty axis contributes a single default
/// element, so the product is never empty.
struct SweepSpec {
  std::vector<std::string> apps;
  std::vector<unsigned> node_counts;
  std::vector<std::string> detectors;
  std::vector<double> thresholds;
  std::vector<std::string> protocols;  ///< empty = protocol not swept
  apps::Scale scale = apps::Scale::kBench;

  /// Enumerates the product app-major (then nodes, detector, threshold,
  /// protocol innermost), assigning each point its spec-order index.
  std::vector<SpecPoint> expand() const;
};

/// Deterministic per-configuration RNG seed: FNV-1a over the point's
/// content (app, nodes, detector, threshold, protocol, scale).
/// Independent of the point's position in the sweep, so inserting
/// configurations never shifts the seeds of existing ones; a point with
/// an empty protocol hashes exactly as it did before that axis existed.
std::uint64_t spec_seed(const SpecPoint& pt);

/// "LU/8p" style label for logs and error messages.
std::string spec_label(const SpecPoint& pt);

}  // namespace dsm::driver
