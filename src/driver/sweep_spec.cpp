#include "driver/sweep_spec.hpp"

#include <cstring>

namespace dsm::driver {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_str(std::uint64_t& h, const std::string& s) {
  // Length-prefix so ("ab","c") and ("a","bc") hash differently.
  const auto len = static_cast<std::uint64_t>(s.size());
  fnv_bytes(h, &len, sizeof len);
  fnv_bytes(h, s.data(), s.size());
}

}  // namespace

std::vector<SpecPoint> SweepSpec::expand() const {
  const std::vector<std::string> apps_axis =
      apps.empty() ? std::vector<std::string>{""} : apps;
  const std::vector<unsigned> nodes_axis =
      node_counts.empty() ? std::vector<unsigned>{0} : node_counts;
  const std::vector<std::string> det_axis =
      detectors.empty() ? std::vector<std::string>{""} : detectors;
  const std::vector<double> thr_axis =
      thresholds.empty() ? std::vector<double>{0.0} : thresholds;
  const std::vector<std::string> proto_axis =
      protocols.empty() ? std::vector<std::string>{""} : protocols;

  std::vector<SpecPoint> points;
  points.reserve(apps_axis.size() * nodes_axis.size() * det_axis.size() *
                 thr_axis.size() * proto_axis.size());
  for (const auto& a : apps_axis)
    for (const unsigned n : nodes_axis)
      for (const auto& d : det_axis)
        for (const double t : thr_axis)
          for (const auto& pr : proto_axis) {
            SpecPoint pt;
            pt.app = a;
            pt.nodes = n;
            pt.detector = d;
            pt.threshold = t;
            pt.protocol = pr;
            pt.scale = scale;
            pt.index = points.size();
            points.push_back(std::move(pt));
          }
  return points;
}

std::uint64_t spec_seed(const SpecPoint& pt) {
  std::uint64_t h = kFnvOffset;
  fnv_str(h, pt.app);
  const std::uint64_t nodes = pt.nodes;
  fnv_bytes(h, &nodes, sizeof nodes);
  fnv_str(h, pt.detector);
  std::uint64_t thr_bits;
  static_assert(sizeof thr_bits == sizeof pt.threshold);
  std::memcpy(&thr_bits, &pt.threshold, sizeof thr_bits);
  fnv_bytes(h, &thr_bits, sizeof thr_bits);
  // Hash the protocol only when the sweep actually varies it, so every
  // pre-axis point keeps its historical seed bit-for-bit.
  if (!pt.protocol.empty()) fnv_str(h, pt.protocol);
  const std::uint64_t scale = static_cast<std::uint64_t>(pt.scale);
  fnv_bytes(h, &scale, sizeof scale);
  // The simulator multiplies the seed before splitting per-processor
  // streams; avoid handing it zero.
  return h == 0 ? kFnvOffset : h;
}

std::string spec_label(const SpecPoint& pt) {
  std::string label = pt.app.empty() ? std::string("run") : pt.app;
  if (pt.nodes != 0) {
    // Appended piecewise: GCC 12 flags `"/" + std::to_string(...)` with a
    // false -Wrestrict.
    label += '/';
    label += std::to_string(pt.nodes);
    label += 'p';
  }
  if (!pt.detector.empty()) label += "/" + pt.detector;
  if (!pt.protocol.empty()) label += "/" + pt.protocol;
  return label;
}

}  // namespace dsm::driver
