#include "obs/metrics.hpp"

#include "common/assert.hpp"

namespace dsm::obs {

namespace {
/// Fixed lane capacities. Handles are raw pointers into the lanes, so the
/// lanes must never reallocate: reserve once, assert on overflow. 4096
/// padded counters = 256 KB, 64 Ki histogram buckets = 512 KB — trivial
/// next to one simulated L2. The largest registrant is the per-link
/// network lane, two counters per dense link id (2 * nodes^2), so the
/// counter lane fits machines of up to 32 nodes.
constexpr std::size_t kMaxCounters = 4096;
constexpr std::size_t kMaxHistSlots = 1 << 16;
}  // namespace

MetricsRegistry::MetricsRegistry() {
  slots_.reserve(kMaxCounters);
  hist_slots_.reserve(kMaxHistSlots);
}

CounterHandle MetricsRegistry::counter(const std::string& name) {
  DSM_ASSERT_MSG(!name.empty(), "counter needs a name");
  if (const auto it = counter_index_.find(name); it != counter_index_.end())
    return CounterHandle(&slots_[it->second].v);
  DSM_ASSERT_MSG(slots_.size() < kMaxCounters,
                 "metrics registry counter lane exhausted");
  // Registrants must all exist before the interval ring fixes the
  // tracked slots — a late one would silently fall out of the timeline.
  DSM_ASSERT_MSG(interval_cap_ == 0,
                 "counter registered after enable_intervals");
  counter_index_.emplace(name, slots_.size());
  slots_.emplace_back();
  counter_names_.push_back(name);
  return CounterHandle(&slots_.back().v);
}

HistogramHandle MetricsRegistry::histogram(const std::string& name,
                                           std::uint32_t buckets) {
  DSM_ASSERT_MSG(!name.empty() && buckets >= 1, "bad histogram registration");
  for (const auto& h : hists_) {
    if (h.name != name) continue;
    DSM_ASSERT_MSG(h.buckets == buckets,
                   "histogram re-registered with a different width");
    return HistogramHandle(&hist_slots_[h.base], h.buckets);
  }
  DSM_ASSERT_MSG(hist_slots_.size() + buckets <= kMaxHistSlots,
                 "metrics registry histogram lane exhausted");
  const std::size_t base = hist_slots_.size();
  hist_slots_.resize(base + buckets, 0);
  hists_.push_back(HistInfo{name, base, buckets});
  return HistogramHandle(&hist_slots_[base], buckets);
}

void MetricsRegistry::enable_intervals(std::uint32_t capacity) {
  DSM_ASSERT_MSG(interval_cap_ == 0, "enable_intervals called twice");
  DSM_ASSERT_MSG(capacity >= 1, "interval ring needs capacity >= 1");
  interval_cap_ = capacity;
  baseline_.resize(slots_.size(), 0);
  ring_deltas_.resize(static_cast<std::size_t>(capacity) * slots_.size(), 0);
  ring_meta_.resize(capacity);
  begin_interval();
}

void MetricsRegistry::begin_interval() {
  for (std::size_t i = 0; i < baseline_.size(); ++i)
    baseline_[i] = slots_[i].v;
}

void MetricsRegistry::end_interval(const IntervalMeta& meta) {
  DSM_ASSERT_MSG(interval_cap_ != 0, "end_interval before enable_intervals");
  const std::size_t row = static_cast<std::size_t>(ring_next_) * slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint64_t v = slots_[i].v;
    ring_deltas_[row + i] = v - baseline_[i];
    baseline_[i] = v;
  }
  ring_meta_[ring_next_] = meta;
  ring_next_ = (ring_next_ + 1 == interval_cap_) ? 0 : ring_next_ + 1;
  if (ring_count_ < interval_cap_)
    ++ring_count_;
  else
    ++interval_dropped_;  // overwrote the oldest surviving row
  ++interval_captured_;
}

std::vector<std::string> MetricsRegistry::interval_slot_names() const {
  return interval_cap_ != 0 ? counter_names_ : std::vector<std::string>();
}

std::vector<CapturedInterval> MetricsRegistry::captured_intervals() const {
  std::vector<CapturedInterval> out;
  out.reserve(ring_count_);
  // Oldest surviving row: ring_next_ when full (it is about to be
  // overwritten), 0 while still filling.
  const std::uint32_t start = ring_count_ == interval_cap_ ? ring_next_ : 0;
  for (std::uint32_t k = 0; k < ring_count_; ++k) {
    const std::uint32_t idx = (start + k) % interval_cap_;
    CapturedInterval ci;
    ci.meta = ring_meta_[idx];
    const std::size_t row = static_cast<std::size_t>(idx) * slots_.size();
    ci.deltas.assign(ring_deltas_.begin() + static_cast<std::ptrdiff_t>(row),
                     ring_deltas_.begin() +
                         static_cast<std::ptrdiff_t>(row + slots_.size()));
    out.push_back(std::move(ci));
  }
  return out;
}

std::vector<std::uint64_t> MetricsRegistry::interval_tail() const {
  std::vector<std::uint64_t> out(baseline_.size(), 0);
  for (std::size_t i = 0; i < baseline_.size(); ++i)
    out[i] = slots_[i].v - baseline_[i];
  return out;
}

std::string MetricsRegistry::intervals_json() const {
  if (interval_cap_ == 0) return "";
  std::string out = "{\"slots\":[";
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += counter_names_[i];
    out += '"';
  }
  out += "],\"capacity\":";
  out += std::to_string(interval_cap_);
  out += ",\"captured\":";
  out += std::to_string(interval_captured_);
  out += ",\"dropped\":";
  out += std::to_string(interval_dropped_);
  out += ",\"intervals\":[";
  const std::uint32_t start = ring_count_ == interval_cap_ ? ring_next_ : 0;
  for (std::uint32_t k = 0; k < ring_count_; ++k) {
    const std::uint32_t idx = (start + k) % interval_cap_;
    if (k != 0) out += ',';
    const IntervalMeta& m = ring_meta_[idx];
    out += '[';
    out += std::to_string(m.node);
    out += ',';
    out += std::to_string(m.seq);
    out += ',';
    out += std::to_string(m.phase);
    out += ',';
    out += std::to_string(m.end_cycle);
    const std::size_t row = static_cast<std::size_t>(idx) * slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      out += ',';
      out += std::to_string(ring_deltas_[row + i]);
    }
    out += ']';
  }
  out += "],\"tail\":[";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(slots_[i].v - baseline_[i]);
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::snapshot_json() const {
  // Hand-rolled for byte-stability: names contain no characters needing
  // escape (registrants use [a-z0-9._] by convention) and values are
  // plain uint64 — the exact bytes must match across every execution
  // mode, so no locale- or double-formatting is allowed near here.
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += counter_names_[i];
    out += "\":";
    out += std::to_string(slots_[i].v);
  }
  out += "},\"histograms\":{";
  for (const auto& h : hists_) {
    if (&h != &hists_.front()) out += ',';
    out += '"';
    out += h.name;
    out += "\":[";
    for (std::uint32_t b = 0; b < h.buckets; ++b) {
      if (b != 0) out += ',';
      out += std::to_string(hist_slots_[h.base + b]);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

std::uint64_t MetricsRegistry::value(const std::string& name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : slots_[it->second].v;
}

std::vector<std::uint64_t> MetricsRegistry::histogram_values(
    const std::string& name) const {
  for (const auto& h : hists_) {
    if (h.name != name) continue;
    return std::vector<std::uint64_t>(
        hist_slots_.begin() + static_cast<std::ptrdiff_t>(h.base),
        hist_slots_.begin() + static_cast<std::ptrdiff_t>(h.base + h.buckets));
  }
  return {};
}

}  // namespace dsm::obs
