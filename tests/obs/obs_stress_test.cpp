// Stress: tracing under threaded parallel evaluation with work stealing.
// Meant for -DREDUNDANCY_SANITIZE=thread builds (ctest -L stress).
//
// Several requester threads each drive their own 3-variant engine; variant
// tasks fan out on the shared work-stealing pool, so spans for one request
// finish on arbitrary workers. Each leg spins past the inline budget, so no
// engine ever learns to run its electorate on the requester instead. Afterwards every variant span must still
// point at a request span of the same trace (causality survives stealing),
// and the always-on counters must equal the exact request count. The SLO
// engine's health view must likewise count every verdict that writers
// race against its rotations and renders.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/voters.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "util/placement.hpp"
#include "util/thread_pool.hpp"

namespace redundancy {
namespace {

constexpr std::size_t kRequesters = 4;
constexpr std::size_t kRequestsEach = 64;
constexpr std::size_t kVariants = 3;

core::ParallelEvaluation<int, int> make_engine() {
  std::vector<core::Variant<int, int>> variants;
  for (std::size_t i = 0; i < kVariants; ++i) {
    variants.push_back(core::make_variant<int, int>(
        "v" + std::to_string(i), [](const int& x) -> core::Result<int> {
          const std::uint64_t t0 = obs::now_ns();
          while (obs::now_ns() - t0 < util::Placement::kInlineBudgetNs) {
          }
          return x + 1;
        }));
  }
  return core::ParallelEvaluation<int, int>(std::move(variants),
                                            core::majority_voter<int>(),
                                            core::Concurrency::threaded);
}

TEST(ObsStress, SpanTreeAndCountersSurviveWorkStealing) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  auto& rec = obs::Recorder::instance();
  auto sink = std::make_shared<obs::CollectingSink>();
  rec.clear_sinks();
  rec.add_sink(sink);
  rec.set_sample_every(1);
  rec.set_enabled(true);

  auto& requests = obs::counter("technique.requests", "parallel_evaluation");
  auto& latency = obs::histogram("technique.request_ns",
                                 "parallel_evaluation");
  const std::uint64_t req0 = requests.total();
  const std::uint64_t lat0 = latency.count();

  std::vector<std::thread> requesters;
  requesters.reserve(kRequesters);
  for (std::size_t t = 0; t < kRequesters; ++t) {
    requesters.emplace_back([] {
      auto engine = make_engine();
      for (std::size_t i = 0; i < kRequestsEach; ++i) {
        const std::uint64_t queued0 =
            util::ThreadPool::submitted_by_this_thread();
        auto out = engine.run(static_cast<int>(i));
        ASSERT_NE(util::ThreadPool::submitted_by_this_thread(), queued0)
            << "call " << i << " did not fan out";
        ASSERT_TRUE(out.has_value());
        ASSERT_EQ(out.value(), static_cast<int>(i) + 1);
      }
    });
  }
  for (auto& t : requesters) t.join();
  util::ThreadPool::shared().wait_idle();
  rec.flush();
  rec.set_enabled(false);
  rec.clear_sinks();

  constexpr std::uint64_t kTotal = kRequesters * kRequestsEach;
  // Counters are exact whatever the interleaving.
  EXPECT_EQ(requests.total() - req0, kTotal);
  EXPECT_EQ(latency.count() - lat0, kTotal);

  // Index request spans, then check every variant span hangs off one.
  std::map<std::uint64_t, const obs::SpanRecord*> request_spans;  // span id ->
  std::size_t variant_spans = 0;
  for (const auto& s : sink->spans()) {
    if (s.name == "parallel_evaluation") {
      EXPECT_EQ(s.parent_id, 0u);  // always a root
      request_spans.emplace(s.span_id, &s);
    }
  }
  EXPECT_EQ(request_spans.size(), kTotal);
  for (const auto& s : sink->spans()) {
    if (s.name != "variant") continue;
    ++variant_spans;
    auto it = request_spans.find(s.parent_id);
    ASSERT_NE(it, request_spans.end())
        << "variant span " << s.span_id << " has no request parent";
    EXPECT_EQ(s.trace_id, it->second->trace_id)
        << "parent edge crossed traces";
    EXPECT_TRUE(s.ok);
  }
  EXPECT_EQ(variant_spans, kTotal * kVariants);

  // One join_all vote per request, each seeing the full electorate.
  EXPECT_EQ(sink->adjudications().size(), kTotal);
  for (const auto& a : sink->adjudications()) {
    EXPECT_EQ(a.electorate, kVariants);
    EXPECT_EQ(a.ballots_seen, kVariants);
    EXPECT_EQ(a.ballots_failed, 0u);
    EXPECT_TRUE(a.accepted);
    EXPECT_NE(request_spans.find(a.parent_id), request_spans.end());
  }
}

TEST(ObsStress, HealthViewCountsEveryVerdictRacingRotations) {
  // Writers start counting for techniques the tracker has never seen while
  // another thread rotates and renders; no verdict may fall between a
  // technique's discovery and its windows. Synthetic time: 1 ms per tick,
  // at most 1000 ticks, so every epoch stays in the 10 s window and in the
  // ring.
  constexpr int kWriters = 4;
  constexpr int kVerdictsEach = 5'000;
  constexpr std::uint64_t kMs = 1'000'000ull;
  obs::SloTracker slo{{/*epoch_ns=*/kMs, /*slots=*/1024}};
  std::atomic<bool> done{false};
  std::uint64_t now = 0;
  std::thread rotator([&] {
    for (int tick = 0; tick < 1000 && !done.load(); ++tick) {
      now += kMs;
      slo.tick(now);
      (void)slo.health(now);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      obs::TechniqueCounters counters{"obs_stress.health_" +
                                      std::to_string(w % 2)};
      for (int i = 0; i < kVerdictsEach; ++i) {
        counters.count(obs::now_ns(), i % 10 != 0, i % 10 == 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  rotator.join();

  std::uint64_t requests = 0, recoveries = 0, unrecovered = 0;
  for (const obs::HealthRow& row : slo.health(now).rows) {
    if (row.name.rfind("obs_stress.health_", 0) != 0) continue;
    requests += row.requests;
    recoveries += row.recoveries;
    unrecovered += row.errors;
    EXPECT_EQ(row.state, obs::SloState::failing);
  }
  EXPECT_EQ(requests, std::uint64_t{kWriters} * kVerdictsEach);
  EXPECT_EQ(recoveries, std::uint64_t{kWriters} * kVerdictsEach / 10);
  EXPECT_EQ(unrecovered, std::uint64_t{kWriters} * kVerdictsEach / 10);
}

}  // namespace
}  // namespace redundancy
