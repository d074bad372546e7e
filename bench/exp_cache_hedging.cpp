// E-cache. Acceptance experiment for the hot-path overhaul: the result
// cache and the hedging scheduler must each earn their keep on the
// workloads they were built for.
//
// Part A — memoization under a Zipf key distribution. Requests draw keys
// from a Zipf(s=1.0) law over kKeys distinct inputs; the cache capacity is
// chosen as the smallest key-prefix holding >= 90% of the probability
// mass, so the steady-state hit rate lands near 90% by construction (the
// paper-style "hot head" scenario). A 3-variant parallel evaluation with
// ~2 us variant bodies is timed uncached vs cached; the gate is a >= 5x
// throughput gain.
//
// Part B — hedged sequential alternatives on a skewed-latency primary.
// The primary answers in ~200 us except for 1 request in 25 which stalls
// for 20 ms (a GC pause / slow replica model); a ~300 us fallback stands
// by. Plain recovery blocks only engage the fallback on *failure*, so the
// stalls land squarely on p99. With hedging the fallback is raced as soon
// as the primary exceeds a budget derived from the live alternative
// latency histogram; the gate is hedged p99 <= 0.5x the sequential p99.
//
// Emits BENCH_exp_cache_hedging.json in the bench_json_main schema
// (percentiles here are exact order statistics over per-request samples,
// not histogram estimates) plus metrics_cache_hedging.prom.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/redundancy_cache.hpp"
#include "core/sequential_alternatives.hpp"
#include "core/voters.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

using namespace redundancy;

namespace {

// --- part A parameters ------------------------------------------------------
constexpr std::size_t kKeys = 4096;          // Zipf key universe
constexpr double kZipfS = 1.0;               // classic harmonic skew
constexpr double kTargetMass = 0.93;         // cache the head holding 93%:
                                             // LRU churn on the tail costs a
                                             // few points, landing ~90% hits
constexpr std::size_t kZipfWarmup = 10'000;  // fills the cache + the sketch
constexpr std::size_t kZipfRequests = 30'000;
constexpr int kZipfRounds = 3;               // best-of, sheds scheduler noise
constexpr double kSpeedupGate = 5.0;

// --- part B parameters ------------------------------------------------------
constexpr std::size_t kHedgeWarmup = 100;    // seeds the latency histogram
constexpr std::size_t kHedgeRequests = 500;
constexpr int kSlowEvery = 25;               // 4% of requests stall...
constexpr auto kStall = std::chrono::milliseconds(20);  // ...for this long
constexpr std::uint64_t kPrimaryNs = 200'000;
constexpr std::uint64_t kFallbackNs = 300'000;
constexpr double kP99Gate = 0.5;             // hedged p99 vs baseline p99

/// Spin for ~ns of real work (a parser / checksum variant stand-in).
void busy(std::uint64_t ns) {
  const std::uint64_t t0 = obs::now_ns();
  unsigned acc = 1;
  while (obs::now_ns() - t0 < ns) acc = acc * 1664525u + 1013904223u;
  if (acc == 0) std::printf(" ");  // defeat dead-code elimination
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic Zipf sampler: inverse-CDF lookup over precomputed mass.
class ZipfSampler {
 public:
  ZipfSampler() : cdf_(kKeys) {
    double total = 0.0;
    for (std::size_t i = 0; i < kKeys; ++i) {
      total += 1.0 / std::pow(double(i + 1), kZipfS);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  /// Smallest k such that the top-k keys carry >= mass of the distribution.
  [[nodiscard]] std::size_t head_keys(double mass) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), mass);
    return std::size_t(it - cdf_.begin()) + 1;
  }

  [[nodiscard]] int next(std::uint64_t& rng_state) const {
    const double u =
        double(splitmix(rng_state) >> 11) * (1.0 / 9007199254740992.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return int(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

core::ParallelEvaluation<int, int> make_electorate() {
  std::vector<core::Variant<int, int>> variants;
  for (int i = 0; i < 3; ++i) {
    variants.push_back(core::make_variant<int, int>(
        "v" + std::to_string(i), [](const int& x) -> core::Result<int> {
          busy(2'000);
          return x * 2;
        }));
  }
  return core::ParallelEvaluation<int, int>(std::move(variants),
                                            core::majority_voter<int>());
}

struct Series {
  std::vector<double> latency_ns;  // one sample per request
  double mean_ns = 0.0;
  [[nodiscard]] double ops_per_sec() const {
    return mean_ns > 0.0 ? 1e9 / mean_ns : 0.0;
  }
  /// Exact order-statistic percentile (q in [0, 100]) of the samples.
  [[nodiscard]] double percentile(double q) const {
    if (latency_ns.empty()) return 0.0;
    std::vector<double> sorted = latency_ns;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = std::min(
        sorted.size() - 1, std::size_t(q / 100.0 * double(sorted.size())));
    return sorted[idx];
  }
};

/// One warmed round of the Zipf workload; per-request timestamps.
template <typename Engine>
Series run_zipf_round(Engine& engine, const ZipfSampler& zipf) {
  std::uint64_t rng = 0x5EEDBA5Eull;
  for (std::size_t i = 0; i < kZipfWarmup; ++i) {
    (void)engine.run(zipf.next(rng));
  }
  Series s;
  s.latency_ns.reserve(kZipfRequests);
  double total = 0.0;
  std::uint64_t prev = obs::now_ns();
  for (std::size_t i = 0; i < kZipfRequests; ++i) {
    (void)engine.run(zipf.next(rng));
    const std::uint64_t t = obs::now_ns();
    s.latency_ns.push_back(double(t - prev));
    total += double(t - prev);
    prev = t;
  }
  s.mean_ns = total / double(kZipfRequests);
  return s;
}

/// Skewed-latency recovery-block engine: ~200 us primary that stalls 20 ms
/// every kSlowEvery-th call, plus a ~300 us always-correct fallback.
core::SequentialAlternatives<int, int> make_hedge_engine(
    const std::string& label) {
  auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::vector<core::Variant<int, int>> alts;
  alts.push_back(core::make_variant<int, int>(
      "primary", [calls](const int& x) -> core::Result<int> {
        if (calls->fetch_add(1) % kSlowEvery == kSlowEvery - 1) {
          std::this_thread::sleep_for(kStall);
        } else {
          busy(kPrimaryNs);
        }
        return x + 1;
      }));
  alts.push_back(core::make_variant<int, int>(
      "fallback", [](const int& x) -> core::Result<int> {
        busy(kFallbackNs);
        return x + 1;
      }));
  core::SequentialAlternatives<int, int> engine{std::move(alts),
                                                core::accept_all<int, int>()};
  engine.set_obs_label(label);
  return engine;
}

/// Time kHedgeRequests through the engine, draining hedge stragglers from
/// the shared pool OUTSIDE the timed window so later requests never queue
/// behind a 20 ms sleeper left by an earlier hedge.
Series run_hedge_round(core::SequentialAlternatives<int, int>& engine) {
  for (std::size_t i = 0; i < kHedgeWarmup; ++i) {
    (void)engine.run(int(i));
    util::ThreadPool::shared().wait_idle();
  }
  Series s;
  s.latency_ns.reserve(kHedgeRequests);
  double total = 0.0;
  for (std::size_t i = 0; i < kHedgeRequests; ++i) {
    const std::uint64_t t0 = obs::now_ns();
    (void)engine.run(int(i));
    const double dt = double(obs::now_ns() - t0);
    s.latency_ns.push_back(dt);
    total += dt;
    util::ThreadPool::shared().wait_idle();
  }
  s.mean_ns = total / double(kHedgeRequests);
  return s;
}

void write_json(const std::vector<std::pair<std::string, Series>>& all) {
  const char* path = "BENCH_exp_cache_hedging.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_cache_hedging: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"binary\": \"exp_cache_hedging\",\n");
  std::fprintf(f, "  \"pool_threads\": %zu,\n",
               util::ThreadPool::shared_size_from_env());
  std::fprintf(f, "  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& [name, s] : all) {
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"ops_per_sec\": %.3f, "
                 "\"latency_ns_mean\": %.1f, \"latency_ns_p50\": %.1f, "
                 "\"latency_ns_p95\": %.1f, \"latency_ns_p99\": %.1f, "
                 "\"repetitions\": %zu, \"threads\": 1}",
                 first ? "" : ",\n", name.c_str(), s.ops_per_sec(), s.mean_ns,
                 s.percentile(50.0), s.percentile(95.0), s.percentile(99.0),
                 s.latency_ns.size());
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  const ZipfSampler zipf;
  const std::size_t capacity = zipf.head_keys(kTargetMass);

  // --- part A: uncached vs cached throughput on the Zipf workload ----------
  Series uncached;
  for (int r = 0; r < kZipfRounds; ++r) {
    auto engine = make_electorate();
    engine.set_obs_label("cachebench_uncached");
    Series s = run_zipf_round(engine, zipf);
    if (r == 0 || s.mean_ns < uncached.mean_ns) uncached = std::move(s);
  }

  Series cached;
  double hit_rate = 0.0;
  for (int r = 0; r < kZipfRounds; ++r) {
    auto engine = make_electorate();
    engine.set_obs_label("cachebench_cached");
    core::CacheConfig config;
    config.capacity = capacity;
    engine.enable_cache(config);
    Series s = run_zipf_round(engine, zipf);
    if (r == 0 || s.mean_ns < cached.mean_ns) {
      cached = std::move(s);
      hit_rate = engine.cache()->stats().hit_rate();
    }
  }
  const double speedup =
      cached.mean_ns > 0.0 ? uncached.mean_ns / cached.mean_ns : 0.0;

  // --- part B: sequential baseline vs hedged tail latency ------------------
  auto baseline_engine = make_hedge_engine("cachebench_sequential");
  const Series baseline = run_hedge_round(baseline_engine);

  auto hedged_engine = make_hedge_engine("cachebench_hedged");
  typename core::SequentialAlternatives<int, int>::Options::Hedge hedge;
  hedge.enabled = true;
  hedge.quantile = 95.0;
  hedge.multiplier = 2.0;          // budget = 2x live p95 of alternative_ns
  hedge.fallback_budget_ns = 1'000'000;  // until the histogram warms up
  hedge.min_samples = 64;
  hedge.max_budget_ns = 5'000'000;  // never wait more than 5 ms to hedge
  hedged_engine.set_hedge(hedge);
  const Series hedged = run_hedge_round(hedged_engine);
  const std::uint64_t budget_ns = hedged_engine.hedge_budget_ns();
  const std::uint64_t hedge_fires = hedged_engine.metrics().hedged_launches;

  const double p99_ratio = baseline.percentile(99.0) > 0.0
                               ? hedged.percentile(99.0) /
                                     baseline.percentile(99.0)
                               : 1.0;
  const bool pass_cache = speedup >= kSpeedupGate;
  const bool pass_hedge = p99_ratio <= kP99Gate;

  std::printf("E-cache. Result cache + hedging on the hot path\n\n");
  std::printf("Part A: Zipf(s=%.1f) over %zu keys, capacity=%zu "
              "(head holding %.0f%% of mass), %zu requests, best of %d\n",
              kZipfS, kKeys, capacity, kTargetMass * 100.0, kZipfRequests,
              kZipfRounds);
  std::printf("  %-24s %10.1f ns/req  %12.0f req/s\n", "uncached",
              uncached.mean_ns, uncached.ops_per_sec());
  std::printf("  %-24s %10.1f ns/req  %12.0f req/s   hit rate %.1f%%\n",
              "cached", cached.mean_ns, cached.ops_per_sec(),
              hit_rate * 100.0);
  std::printf("  speedup %.2fx (gate >= %.1fx) -> %s\n\n", speedup,
              kSpeedupGate, pass_cache ? "PASS" : "FAIL");

  std::printf("Part B: %zu requests, primary ~%.0f us with a %lld ms stall "
              "every %dth call, fallback ~%.0f us\n",
              kHedgeRequests, kPrimaryNs / 1e3,
              static_cast<long long>(kStall.count()), kSlowEvery,
              kFallbackNs / 1e3);
  std::printf("  %-24s p50 %8.0f us  p95 %8.0f us  p99 %8.0f us\n",
              "sequential baseline", baseline.percentile(50.0) / 1e3,
              baseline.percentile(95.0) / 1e3, baseline.percentile(99.0) / 1e3);
  std::printf("  %-24s p50 %8.0f us  p95 %8.0f us  p99 %8.0f us\n", "hedged",
              hedged.percentile(50.0) / 1e3, hedged.percentile(95.0) / 1e3,
              hedged.percentile(99.0) / 1e3);
  std::printf("  hedge budget %.0f us (live p95-derived), %llu hedges fired\n",
              double(budget_ns) / 1e3,
              static_cast<unsigned long long>(hedge_fires));
  std::printf("  p99 ratio %.3f (gate <= %.2f) -> %s\n\n", p99_ratio, kP99Gate,
              pass_hedge ? "PASS" : "FAIL");

  write_json({{"zipf/uncached", uncached},
              {"zipf/cached", cached},
              {"hedge/sequential_baseline", baseline},
              {"hedge/hedged", hedged}});
  if (obs::MetricsRegistry::instance().write_prometheus_file(
          "metrics_cache_hedging.prom")) {
    std::printf("wrote metrics_cache_hedging.prom\n");
  }
  return (pass_cache && pass_hedge) ? 0 : 1;
}
