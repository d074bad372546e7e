// B1 — microbenchmark: per-request overhead of the three Figure-1 patterns
// over a trivial variant body, as a function of N. Measures the framework's
// own cost (dispatch, ballot collection, adjudication) rather than variant
// work.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "core/sequential_alternatives.hpp"
#include "obs/clock.hpp"
#include "util/thread_pool.hpp"

using namespace redundancy;

namespace {

std::vector<core::Variant<int, int>> pool(std::size_t n) {
  std::vector<core::Variant<int, int>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(core::make_variant<int, int>(
        "v" + std::to_string(i),
        [](const int& x) -> core::Result<int> { return x + 1; }));
  }
  return out;
}

void BM_SingleVariant(benchmark::State& state) {
  auto v = pool(1)[0];
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v(++x));
  }
}
BENCHMARK(BM_SingleVariant);

void BM_ParallelEvaluation(benchmark::State& state) {
  core::ParallelEvaluation<int, int> pe{
      pool(static_cast<std::size_t>(state.range(0))),
      core::majority_voter<int>()};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe.run(++x));
  }
}
BENCHMARK(BM_ParallelEvaluation)->Arg(3)->Arg(5)->Arg(9);

void BM_ParallelEvaluationThreaded(benchmark::State& state) {
  core::ParallelEvaluation<int, int> pe{
      pool(static_cast<std::size_t>(state.range(0))),
      core::majority_voter<int>(), core::Concurrency::threaded};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe.run(++x));
  }
}
BENCHMARK(BM_ParallelEvaluationThreaded)->Arg(3)->Arg(9);

void BM_ParallelSelection(benchmark::State& state) {
  using PS = core::ParallelSelection<int, int>;
  std::vector<PS::Checked> comps;
  for (auto& v : pool(static_cast<std::size_t>(state.range(0)))) {
    comps.push_back(PS::Checked{std::move(v), core::accept_all<int, int>()});
  }
  PS ps{std::move(comps)};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ps.run(++x));
  }
}
BENCHMARK(BM_ParallelSelection)->Arg(3)->Arg(5)->Arg(9);

void BM_SequentialAlternativesHealthy(benchmark::State& state) {
  core::SequentialAlternatives<int, int> sa{
      pool(static_cast<std::size_t>(state.range(0))),
      core::accept_all<int, int>()};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.run(++x));
  }
}
BENCHMARK(BM_SequentialAlternativesHealthy)->Arg(3)->Arg(9);

void BM_SequentialAlternativesAllFailing(benchmark::State& state) {
  std::vector<core::Variant<int, int>> failing;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    failing.push_back(core::make_variant<int, int>(
        "f", [](const int&) -> core::Result<int> {
          return core::failure(core::FailureKind::crash);
        }));
  }
  core::SequentialAlternatives<int, int> sa{std::move(failing),
                                            core::accept_all<int, int>()};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.run(++x));
  }
}
BENCHMARK(BM_SequentialAlternativesAllFailing)->Arg(3)->Arg(9);

// --- latency-skewed variants: what the engine rewrite buys -----------------
//
// Five agreeing variants whose completion times are skewed by 10ms steps
// (variant i sleeps (i+1)*10ms), the model of replicas with different
// response times. join_all pays the slowest variant (~50ms). Incremental
// adjudication returns once the strict majority exists (3rd arrival,
// ~30ms). First-wins selection returns on the first accepted ballot
// (~10ms) — ≥2x the join_all throughput.
//
// Early-return modes leave sleeping stragglers behind; back-to-back timed
// iterations would queue behind them and measure pool saturation instead of
// pattern latency, so each iteration drains the shared pool outside timing.

std::vector<core::Variant<int, int>> skewed_pool(std::size_t n) {
  std::vector<core::Variant<int, int>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(core::make_variant<int, int>(
        "v" + std::to_string(i), [i](const int& x) -> core::Result<int> {
          std::this_thread::sleep_for(std::chrono::milliseconds(10 * (i + 1)));
          return x + 1;
        }));
  }
  return out;
}

/// What placement weighs for a threaded join-all electorate: three legs of
/// `leg_ns` each, run one after another on the caller (inline) or posted
/// as one batch the caller joins (pooled), called from outside the pool or
/// from a pool worker. Args: caller (0 outside, 1 worker), placement (0
/// pooled, 1 inline), leg ns. Inline pays where the legs cost less than
/// the caller's hop: a round trip from outside, a short fan-out on a worker.
void BM_ElectorateLegsByCaller(benchmark::State& state) {
  const bool on_worker = state.range(0) != 0;
  const bool run_inline = state.range(1) != 0;
  const auto leg_ns = static_cast<std::uint64_t>(state.range(2));
  const auto spin = [leg_ns] {
    const std::uint64_t t0 = obs::now_ns();
    while (obs::now_ns() - t0 < leg_ns) {
    }
  };
  util::BatchRunner batch;  // used by one thread at a time
  const auto timed_call = [&] {
    const std::uint64_t t0 = obs::now_ns();
    if (run_inline) {
      for (int i = 0; i < 3; ++i) spin();
    } else {
      for (int i = 0; i < 3; ++i) batch.add(spin);
      batch.run_and_wait();
    }
    return static_cast<double>(obs::now_ns() - t0) / 1e9;
  };
  for (auto _ : state) {
    state.SetIterationTime(
        on_worker ? util::ThreadPool::shared().submit(timed_call).get()
                  : timed_call());
  }
}
BENCHMARK(BM_ElectorateLegsByCaller)
    ->ArgsProduct({{0, 1}, {0, 1}, {1'000, 3'000, 6'000, 10'000}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_SkewedThreadedJoinAll(benchmark::State& state) {
  core::ParallelEvaluation<int, int> pe{skewed_pool(5),
                                        core::majority_voter<int>(),
                                        core::Concurrency::threaded};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe.run(++x));
    state.PauseTiming();
    util::ThreadPool::shared().wait_idle();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SkewedThreadedJoinAll)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SkewedThreadedIncremental(benchmark::State& state) {
  core::ParallelEvaluation<int, int> pe{
      skewed_pool(5), core::majority_voter<int>(), core::Concurrency::threaded,
      core::Adjudication::incremental};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe.run(++x));
    state.PauseTiming();
    util::ThreadPool::shared().wait_idle();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SkewedThreadedIncremental)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SkewedFirstWinsSelection(benchmark::State& state) {
  using PS = core::ParallelSelection<int, int>;
  std::vector<PS::Checked> comps;
  for (auto& v : skewed_pool(5)) {
    comps.push_back(PS::Checked{std::move(v), core::accept_all<int, int>()});
  }
  PS ps{std::move(comps),
        typename PS::Options{.disable_on_failure = false,
                             .lazy = true,
                             .concurrency = core::Concurrency::threaded}};
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ps.run(++x));
    state.PauseTiming();
    util::ThreadPool::shared().wait_idle();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SkewedFirstWinsSelection)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
