// PatternCore — the rules the three Figure-1 patterns now share: a variant
// that throws is a crash ballot in every pattern and mode (a threaded
// join-all electorate on the pool or on the calling thread alike); a threaded
// selection's recoveries come from its own legs, not from an earlier
// request's stragglers; and technique.* accounting is gated on obs the same
// way for cache hits and misses.
#include "core/pattern_core.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "core/sequential_alternatives.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {
namespace {

using PE = ParallelEvaluation<int, int>;
using PS = ParallelSelection<int, int>;
using SA = SequentialAlternatives<int, int>;

Variant<int, int> healthy(std::string name, int delay_ms) {
  return make_variant<int, int>(
      std::move(name), [delay_ms](const int& x) -> Result<int> {
        if (delay_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        }
        return x * 2;
      });
}

Variant<int, int> thrower(std::string name) {
  return make_variant<int, int>(std::move(name), [](const int&) -> Result<int> {
    throw std::runtime_error{"variant bug"};
  });
}

// --- a throwing variant, pattern x mode -------------------------------------

struct Probe {
  bool masked = false;  ///< the verdict is the healthy variants' answer
  std::size_t variant_failures = 0;
  std::optional<std::size_t> alive;  ///< parallel selection only
  bool off_the_caller = false;  ///< an after-streak throw that was pooled
};

// Sanitizer builds can slow even trivial legs past the inline budget for
// good, and then no electorate ever earns the calling thread.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

struct ModeCase {
  std::string name;
  std::function<Probe()> run;
};

// gtest would print the case as raw bytes, the std::function's pointers
// included, and every test listing would differ: print its name instead.
void PrintTo(const ModeCase& mode, std::ostream* os) { *os << mode.name; }

/// Healthy legs of the early-return modes run this much slower than the
/// thrower, so closing the race cannot skip the thrower before it starts.
constexpr int kLag = 5;

template <typename Pattern>
Probe probe(Pattern& pattern) {
  const Result<int> out = pattern.run(21);
  util::ThreadPool::shared().wait_idle();
  Probe p;
  p.masked = out.has_value() && out.value() == 42;
  p.variant_failures = pattern.metrics().variant_failures;
  return p;
}

Probe evaluation(Concurrency mode, Adjudication adjudication, int lag) {
  PE pe{{healthy("a", lag), thrower("b"), healthy("c", lag)},
        majority_voter<int>(), mode, adjudication};
  return probe(pe);
}

/// Threaded join-all whose throw lands after the streak: the thrower
/// answers the warm-up inputs and throws on the probe's only, by which time
/// the light electorate runs on the calling thread.
Probe evaluation_after_streak() {
  PE pe{{healthy("a", 0),
         make_variant<int, int>("b",
                                [](const int& x) -> Result<int> {
                                  if (x == 21) {
                                    throw std::runtime_error{"variant bug"};
                                  }
                                  return x * 2;
                                }),
         healthy("c", 0)},
        majority_voter<int>(), Concurrency::threaded};
  auto queued = [] { return util::ThreadPool::submitted_by_this_thread(); };
  for (int i = 0; i < 1000; ++i) {  // until a call runs inline
    const std::uint64_t before = queued();
    (void)pe.run(100 + i);
    if (queued() == before) break;
  }
  pe.reset_metrics();
  const std::uint64_t before = queued();
  Probe p = probe(pe);
  p.off_the_caller = queued() != before;
  return p;
}

Probe selection(Concurrency mode, int lag) {
  PS ps{{PS::Checked{thrower("primary"), accept_all<int, int>()},
         PS::Checked{healthy("spare", lag), accept_all<int, int>()}},
        PS::Options{.concurrency = mode}};
  Probe p = probe(ps);
  p.alive = ps.alive();
  return p;
}

Probe alternatives(bool hedged) {
  SA sa{{thrower("primary"), healthy("alternate", 0)}, accept_all<int, int>()};
  sa.set_obs_label("pattern_core_throw_sa");
  if (hedged) {
    typename SA::Options::Hedge h;
    h.enabled = true;
    h.fallback_budget_ns = 10'000'000'000;  // fall through, never hedge
    h.min_samples = 1'000'000;
    sa.set_hedge(h);
  }
  return probe(sa);
}

class ThrowingVariant : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ThrowingVariant, IsACrashBallotTheHealthyVariantsMask) {
  const Probe p = GetParam().run();
  EXPECT_TRUE(p.masked);
  EXPECT_EQ(p.variant_failures, 1u);
  if (p.alive) {
    EXPECT_EQ(*p.alive, 1u) << "the thrower must be disabled";
  }
  if (p.off_the_caller && kSanitized) {
    GTEST_SKIP() << "the light electorate never fit the inline budget here";
  }
  EXPECT_FALSE(p.off_the_caller) << "the throw did not land on the caller";
}

INSTANTIATE_TEST_SUITE_P(
    EveryPatternAndMode, ThrowingVariant,
    ::testing::Values(
        ModeCase{"EvaluationSequential",
                 [] {
                   return evaluation(Concurrency::sequential,
                                     Adjudication::join_all, 0);
                 }},
        ModeCase{"EvaluationThreaded",
                 [] {
                   return evaluation(Concurrency::threaded,
                                     Adjudication::join_all, 0);
                 }},
        ModeCase{"EvaluationThreadedAfterStreak", evaluation_after_streak},
        ModeCase{"EvaluationIncremental",
                 [] {
                   return evaluation(Concurrency::threaded,
                                     Adjudication::incremental, kLag);
                 }},
        ModeCase{"SelectionSequential",
                 [] { return selection(Concurrency::sequential, 0); }},
        ModeCase{"SelectionThreaded",
                 [] { return selection(Concurrency::threaded, kLag); }},
        ModeCase{"AlternativesSequential", [] { return alternatives(false); }},
        ModeCase{"AlternativesHedged", [] { return alternatives(true); }}),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      return info.param.name;
    });

// --- recoveries come from this request's own legs ---------------------------

TEST(ParallelSelection, ThreadedLateFailureIsNotThisRequestsRecovery) {
  // Request 1: c0 passes at 5 ms, c1 fails at 20 ms (a straggler).
  // Request 2: c0 passes at 50 ms, c1 would pass at 100 ms. Request 1's c1
  // fails while request 2 waits; request 2 masked nothing of its own.
  auto c0 = make_variant<int, int>("c0", [](const int& req) -> Result<int> {
    std::this_thread::sleep_for(std::chrono::milliseconds(req == 1 ? 5 : 50));
    return req;
  });
  auto c1 = make_variant<int, int>("c1", [](const int& req) -> Result<int> {
    if (req == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return failure(FailureKind::crash, "request 1 only");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return req;
  });
  PS ps{{PS::Checked{c0, accept_all<int, int>()},
         PS::Checked{c1, accept_all<int, int>()}},
        PS::Options{.concurrency = Concurrency::threaded}};

  ASSERT_EQ(ps.run(1).value(), 1);
  ASSERT_EQ(ps.run(2).value(), 2);
  EXPECT_EQ(ps.metrics().recoveries, 0u);

  util::ThreadPool::shared().wait_idle();
  // The straggler's failure still counts, and still disables c1.
  EXPECT_EQ(ps.metrics().variant_failures, 1u);
  EXPECT_EQ(ps.alive(), 1u);
}

// --- technique.* accounting: one gate for hits and misses -------------------

struct Series {
  std::uint64_t requests;
  std::uint64_t latencies;
};

Series series(const std::string& label) {
  return {obs::counter("technique.requests", label).total(),
          obs::histogram("technique.request_ns", label).count()};
}

/// One miss then one hit through each pattern's cache; returns how much
/// each pattern's technique.requests / technique.request_ns moved.
std::vector<Series> miss_then_hit(const std::string& suffix) {
  PE pe{{healthy("a", 0), healthy("b", 0), healthy("c", 0)},
        majority_voter<int>()};
  PS ps{{PS::Checked{healthy("only", 0), accept_all<int, int>()}}};
  SA sa{{healthy("only", 0)}, accept_all<int, int>()};
  pe.set_obs_label("pattern_core_pe_" + suffix);
  ps.set_obs_label("pattern_core_ps_" + suffix);
  sa.set_obs_label("pattern_core_sa_" + suffix);
  pe.enable_cache();
  ps.enable_cache();
  sa.enable_cache();
  const std::vector<std::string> labels{"pattern_core_pe_" + suffix,
                                        "pattern_core_ps_" + suffix,
                                        "pattern_core_sa_" + suffix};
  std::vector<Series> before;
  for (const auto& l : labels) before.push_back(series(l));
  for (int i = 0; i < 2; ++i) {  // a miss, then a hit
    EXPECT_EQ(pe.run(4).value(), 8);
    EXPECT_EQ(ps.run(4).value(), 8);
    EXPECT_EQ(sa.run(4).value(), 8);
  }
  // Two requests each, and only the miss ran the variants.
  EXPECT_EQ(pe.metrics().requests, 2u);
  EXPECT_EQ(pe.metrics().variant_executions, 3u);
  EXPECT_EQ(ps.metrics().requests, 2u);
  EXPECT_EQ(ps.metrics().variant_executions, 1u);
  EXPECT_EQ(sa.metrics().requests, 2u);
  EXPECT_EQ(sa.metrics().variant_executions, 1u);
  std::vector<Series> moved;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const Series now = series(labels[i]);
    moved.push_back({now.requests - before[i].requests,
                     now.latencies - before[i].latencies});
  }
  return moved;
}

TEST(PatternCore, TechniqueSeriesCountHitsAndMissesAlike) {
  ASSERT_FALSE(obs::enabled());
  for (const Series& s : miss_then_hit("off")) {
    EXPECT_EQ(s.requests, 0u) << "obs off: neither a miss nor a hit counts";
    EXPECT_EQ(s.latencies, 0u);
  }
  if (!obs::kCompiledIn) return;
  obs::Recorder::instance().set_enabled(true);
  const std::vector<Series> on = miss_then_hit("on");
  obs::Recorder::instance().set_enabled(false);
  for (const Series& s : on) {
    EXPECT_EQ(s.requests, 2u) << "obs on: the miss and the hit both count";
    EXPECT_EQ(s.latencies, 2u);
  }
}

}  // namespace
}  // namespace redundancy::core
