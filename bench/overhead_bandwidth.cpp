// overhead_bandwidth.cpp — reproduces the paper's §III-B communication-
// overhead estimate for the DDV mechanism:
//
//   "Assuming 32 2GHz processors, IPC = 1, and a 'real-world' interval
//    length of 100M instructions, the overall sustained bandwidth
//    requirement of this mechanism is about 160kB/s. If modern memory
//    controllers can handle 1.5GB/s, then the overhead of this mechanism
//    is under 0.15% of the peak bandwidth."
//
// Two independent derivations are reported by the renderer in src/report:
// (a) the analytic model with the paper's assumptions (a pure function,
// recomputed at render time), and (b) the DDV traffic actually recorded
// by the simulator on a real workload, carried in the stream record and
// rescaled to the paper's interval length. The single measurement run
// goes through the experiment driver so the harness shares the sweep
// flags (--threads, --shard, --shards); the renderer's finish() verdict
// is the paper-claim exit code — live or offline.
#include "bench/bench_util.hpp"
#include "phase/traffic_model.hpp"

namespace {

using namespace dsm;

constexpr unsigned kNodes = 32;

struct DdvTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sim_interval = 0;
  std::uint64_t frequency_hz = 0;

  double bytes_per_gather() const {
    const double gathers =
        static_cast<double>(messages) / (2.0 * (kNodes - 1));
    return static_cast<double>(bytes) / gathers;
  }
  /// Per-processor traffic at the paper's "real-world" interval: at IPC=1
  /// a 100M-instruction interval takes 100M cycles; x2 because the node's
  /// interface also serves every peer's gather (responder role), matching
  /// the analytic model's accounting.
  double node_rate() const {
    const double interval_seconds =
        100e6 / static_cast<double>(frequency_hz);
    return 2.0 * bytes_per_gather() / interval_seconds;
  }
};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = bench::reject_axes(
      bench::parse_options(argc, argv),
      {bench::Axis::kApps, bench::Axis::kNodes},
      "overhead_bandwidth measures LU on the paper's 32 nodes");
  if (!parsed.ok) return bench::usage_error(parsed);
  if (const auto rc = bench::maybe_orchestrate(argc, argv, parsed))
    return *rc;
  auto& opt = parsed.options;
  // Test scale unless --scale says otherwise: the record carries the
  // simulated interval, so the rescaling below holds at any scale.
  if (!parsed.scale_set) opt.scale = apps::Scale::kTest;

  // Simulated: measure DDV bytes on a real run, rescale to the paper's
  // "real-world" interval length. Fixed configuration (LU, 32 nodes) —
  // a one-point sweep on the driver. The record carries the counters
  // plus the claim verdict; the renderer prints both the analytic and
  // the simulated derivation and returns the claim status (a shard
  // worker that does not own the point exits 0; the owning worker's
  // record carries the verdict through the merge to `render`).
  return bench::run_reduced_sweep<DdvTraffic>(
      {&apps::app_by_name("LU")}, {kNodes}, opt, "overhead_bandwidth",
      [](const driver::SpecPoint&, sim::RunSummary&& run) {
        DdvTraffic m;
        m.messages = run.net_messages[3];
        m.bytes = run.net_bytes[3];
        m.sim_interval = run.cfg.interval_per_processor();
        m.frequency_hz = run.cfg.core.frequency_hz;
        return m;
      },
      [](const driver::SpecPoint&, const DdvTraffic& m) {
        return shard::JsonObject()
            .add("ddv_messages", m.messages)
            .add("ddv_bytes", m.bytes)
            .add("sim_interval", m.sim_interval)
            .add("bytes_per_gather", m.bytes_per_gather())
            .add("node_rate_bytes_per_s", m.node_rate())
            .add("claim_holds",
                 std::uint64_t{m.node_rate() / 1.5e9 < 0.0015})
            .str();
      });
}
