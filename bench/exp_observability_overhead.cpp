// Observability overhead budget check: the obs:: recorder must cost < 5%
// on the tier-1 pattern workload (3-variant parallel evaluation, ~1 µs
// variant bodies — the same shape bench_patterns measures).
//
// Three configurations of the SAME binary are timed:
//   off      — obs disabled. The only residual instrumentation cost is one
//              relaxed atomic load per site, i.e. what -DREDUNDANCY_OBS_NOOP
//              compiles away entirely; this is the no-op baseline.
//   sampled  — production config: recorder on, NullSink attached, root spans
//              sampled 1-in-64. Counters/histograms stay exact and always-on.
//   traced   — worst case: every request fully traced (sample_every=1).
//
// The budget applies to the production (sampled) config. Timings are
// best-of-R to shed scheduler noise. Also emits the artifact pair the
// tooling collects: metrics_observability.prom and observability.trace.jsonl.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/voters.hpp"
#include "net/gateway.hpp"
#include "obs/obs.hpp"

using namespace redundancy;

namespace {

constexpr std::size_t kRequests = 10'000;
constexpr std::size_t kWarmup = 1'000;
constexpr int kRounds = 7;
constexpr double kBudgetPct = 5.0;

/// ~1 µs of real work, like a small parser or checksum variant.
int busy_variant(const int& x) {
  const std::uint64_t t0 = obs::now_ns();
  int acc = x;
  while (obs::now_ns() - t0 < 1'000) {
    acc = acc * 1664525 + 1013904223;
  }
  return acc >= 0 ? x + 1 : x + 1;  // deterministic output, consumes acc
}

core::ParallelEvaluation<int, int> make_engine() {
  std::vector<core::Variant<int, int>> variants;
  for (int i = 0; i < 3; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    variants.push_back(
        core::make_variant<int, int>(std::move(name), busy_variant, 1.0));
  }
  return core::ParallelEvaluation<int, int>(std::move(variants),
                                            core::majority_voter<int>());
}

/// Mean ns/request over kRequests, best of kRounds.
double measure() {
  double best = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    auto engine = make_engine();
    for (std::size_t i = 0; i < kWarmup; ++i) {
      (void)engine.run(static_cast<int>(i));
    }
    const std::uint64_t t0 = obs::now_ns();
    for (std::size_t i = 0; i < kRequests; ++i) {
      (void)engine.run(static_cast<int>(i));
    }
    const double mean =
        double(obs::now_ns() - t0) / double(kRequests);
    if (round == 0 || mean < best) best = mean;
  }
  return best;
}

double overhead_pct(double base, double mode) {
  return base > 0.0 ? (mode - base) / base * 100.0 : 0.0;
}

}  // namespace

int main() {
  auto& rec = obs::Recorder::instance();

  // off: disabled recorder, no sinks — the compiled-to-no-ops baseline.
  rec.set_enabled(false);
  rec.clear_sinks();
  const double off_ns = measure();

  // sampled: production config (NullSink, 1-in-64 root spans) with a
  // 1-loop gateway running but idle — the deployment shape of the live
  // telemetry endpoint. An unscraped gateway wakes every 100 ms to check
  // its stop flag and must not eat into the budget.
  net::Gateway::Options options;
  options.loops = 1;
  net::Gateway gateway{options};
  if (!gateway.start()) {
    std::printf("warning: could not start idle gateway\n");
  }
  auto null_sink = std::make_shared<obs::NullSink>();
  rec.add_sink(null_sink);
  rec.set_sample_every(64);
  rec.set_enabled(true);
  const double sampled_ns = measure();

  // traced: every request traced.
  rec.set_sample_every(1);
  const double traced_ns = measure();
  rec.flush();
  gateway.stop();

  const double sampled_pct = overhead_pct(off_ns, sampled_ns);
  const double traced_pct = overhead_pct(off_ns, traced_ns);
  const bool pass = sampled_pct < kBudgetPct;

  std::printf("E-obs. Recorder overhead on the tier-1 pattern workload\n");
  std::printf("(3-variant parallel evaluation, ~1us bodies, %zu requests, "
              "best of %d)\n\n", kRequests, kRounds);
  std::printf("  %-28s %10.1f ns/request\n", "off (no-op baseline)", off_ns);
  std::printf("  %-28s %10.1f ns/request  %+6.2f%%\n",
              "sampled 1/64 + idle gateway", sampled_ns, sampled_pct);
  std::printf("  %-28s %10.1f ns/request  %+6.2f%%\n",
              "traced 1/1 (worst case)", traced_ns, traced_pct);
  std::printf("\nbudget: sampled overhead < %.1f%% -> %s\n", kBudgetPct,
              pass ? "PASS" : "FAIL");

  // Artifact pair for scripts/bench.sh: exact metrics of the runs above,
  // plus a small fully-traced sample of the same workload.
  rec.clear_sinks();
  rec.add_sink(std::make_shared<obs::JsonlTraceSink>(
      std::string{"observability.trace.jsonl"}));
  rec.set_sample_every(1);
  {
    auto engine = make_engine();
    for (int i = 0; i < 8; ++i) (void)engine.run(i);
  }
  rec.flush();
  rec.set_enabled(false);
  rec.clear_sinks();
  if (obs::MetricsRegistry::instance().write_prometheus_file(
          "metrics_observability.prom")) {
    std::printf("wrote metrics_observability.prom and "
                "observability.trace.jsonl\n");
  }
  return pass ? 0 : 1;
}
