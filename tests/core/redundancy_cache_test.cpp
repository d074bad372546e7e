// core::RedundancyCache — storage, admission, invalidation, single-flight
// coalescing, and the allocation-free hit guarantee the patterns rely on;
// beside it, the same guarantee for a warmed-up join-all electorate and
// for the sequential selecting patterns.
//
// Every test uses its own cache instance with a unique metrics label:
// cache.* counters live in the process-wide obs::MetricsRegistry, so a
// shared label would bleed totals between tests. stats() deltas are
// asserted against a snapshot taken at cache construction.
#include "core/redundancy_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_epoch.hpp"
#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "core/sequential_alternatives.hpp"
#include "core/voters.hpp"
#include "obs/clock.hpp"
#include "util/placement.hpp"
#include "util/thread_pool.hpp"

// Thread-local allocation counter threaded through global operator new. It
// only counts (no behavioural change), so it is safe for the whole test
// binary; sanitizer builds interpose their own allocator, so the
// allocation-free assertions are skipped there.
namespace {
thread_local std::uint64_t g_allocs = 0;
}  // namespace

// GCC pattern-matches new/free pairs across these replacement definitions
// and reports a spurious mismatch; every path here is malloc/free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
// The nothrow forms too (libstdc++'s stable_sort buffer uses them): left to
// the runtime's own definitions, their blocks would reach the free-based
// deletes below, which ASan reports as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REDUNDANCY_ALLOC_COUNTING_UNRELIABLE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define REDUNDANCY_ALLOC_COUNTING_UNRELIABLE 1
#endif
#endif

namespace redundancy::core {
namespace {

using Cache = RedundancyCache<int>;

CacheConfig config(std::string label, std::size_t capacity = 64,
                   std::size_t shards = 1) {
  CacheConfig c;
  c.capacity = capacity;
  c.shards = shards;
  c.label = std::move(label);
  return c;
}

TEST(RedundancyCache, MissRunsOnceThenHits) {
  Cache cache{config("rc_miss_hit")};
  std::atomic<int> runs{0};
  for (int i = 0; i < 5; ++i) {
    auto r = cache.get_or_run(7, [&]() -> Result<int> {
      ++runs;
      return 42;
    });
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r.value(), 42);
  }
  EXPECT_EQ(runs.load(), 1);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.admits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.8);
}

TEST(RedundancyCache, LookupAndStoreRoundTrip) {
  Cache cache{config("rc_roundtrip")};
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.store(1, Result<int>{10});
  auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value(), 10);
  // Refresh overwrites in place.
  cache.store(1, Result<int>{11});
  EXPECT_EQ(cache.lookup(1)->value(), 11);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RedundancyCache, FailuresAreNotCachedByDefault) {
  Cache cache{config("rc_fail_nocache")};
  int runs = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = cache.get_or_run(9, [&]() -> Result<int> {
      ++runs;
      return failure(FailureKind::timeout, "transient");
    });
    EXPECT_FALSE(r.has_value());
  }
  // A transient fault must be retried by the next request.
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RedundancyCache, FailuresCachedWhenOptedIn) {
  auto cfg = config("rc_fail_cache");
  cfg.cache_failures = true;
  Cache cache{cfg};
  int runs = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = cache.get_or_run(9, [&]() -> Result<int> {
      ++runs;
      return failure(FailureKind::wrong_output, "deterministic");
    });
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().kind, FailureKind::wrong_output);
  }
  EXPECT_EQ(runs, 1);  // the negative verdict memoizes too
}

TEST(RedundancyCache, TtlExpiresEntries) {
  auto cfg = config("rc_ttl");
  // The first lookup must land within the TTL of the store: 100 ms leaves
  // room for a descheduled thread on a loaded host.
  cfg.ttl_ns = 100'000'000;
  Cache cache{cfg};
  cache.store(5, Result<int>{50});
  EXPECT_TRUE(cache.lookup(5).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(cache.lookup(5).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(RedundancyCache, InvalidateAllStrandsEveryEntry) {
  Cache cache{config("rc_inval_local")};
  cache.store(1, Result<int>{10});
  cache.store(2, Result<int>{20});
  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_EQ(cache.stats().invalidations, 2u);
  // Refill under the new epoch works.
  cache.store(1, Result<int>{100});
  EXPECT_EQ(cache.lookup(1)->value(), 100);
}

TEST(RedundancyCache, GlobalEpochAdvanceStrandsEveryCache) {
  Cache a{config("rc_inval_global_a")};
  Cache b{config("rc_inval_global_b")};
  a.store(1, Result<int>{10});
  b.store(1, Result<int>{11});
  // The restart signal rejuvenation/microreboot emit.
  advance_cache_epoch();
  EXPECT_FALSE(a.lookup(1).has_value());
  EXPECT_FALSE(b.lookup(1).has_value());
}

TEST(RedundancyCache, ClearDropsEntriesEagerly) {
  Cache cache{config("rc_clear")};
  cache.store(1, Result<int>{10});
  cache.store(2, Result<int>{20});
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1).has_value());
}

TEST(RedundancyCache, TinyLfuAdmissionProtectsTheHotSet) {
  // One shard, capacity 2: hot keys A and B each requested three times, so
  // the sketch knows them; a one-hit-wonder scan must not displace them.
  Cache cache{config("rc_tinylfu", /*capacity=*/2, /*shards=*/1)};
  int runs_a = 0;
  for (int round = 0; round < 3; ++round) {
    (void)cache.get_or_run(100, [&]() -> Result<int> {
      ++runs_a;
      return 1;
    });
    (void)cache.get_or_run(200, [&]() -> Result<int> { return 2; });
  }
  const auto before = cache.stats();
  // Scan of cold keys, each seen exactly once.
  for (std::uint64_t key = 1000; key < 1032; ++key) {
    (void)cache.get_or_run(key, [&]() -> Result<int> { return 3; });
  }
  const auto after = cache.stats();
  EXPECT_GE(after.rejects, before.rejects + 30);  // the scan bounced off
  // The hot set survived: A still answers from cache.
  (void)cache.get_or_run(100, [&]() -> Result<int> {
    ++runs_a;
    return 1;
  });
  EXPECT_EQ(runs_a, 1);
}

TEST(RedundancyCache, RepeatedlyRequestedKeyEventuallyDisplacesVictim) {
  Cache cache{config("rc_admit_hot", /*capacity=*/2, /*shards=*/1)};
  for (int round = 0; round < 2; ++round) {
    (void)cache.get_or_run(100, [&]() -> Result<int> { return 1; });
    (void)cache.get_or_run(200, [&]() -> Result<int> { return 2; });
  }
  // A newcomer requested more often than the LRU victim wins the duel.
  int runs_c = 0;
  for (int i = 0; i < 8; ++i) {
    (void)cache.get_or_run(300, [&]() -> Result<int> {
      ++runs_c;
      return 3;
    });
  }
  EXPECT_LT(runs_c, 8);  // admitted at some point, then served from cache
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);  // capacity invariant held throughout
}

TEST(RedundancyCache, ShardCountRoundsToPowerOfTwo) {
  Cache cache{config("rc_shards", /*capacity=*/1024, /*shards=*/5)};
  EXPECT_EQ(cache.shard_count(), 8u);
  // Tiny caches collapse to one shard rather than shards with capacity 0.
  Cache tiny{config("rc_shards_tiny", /*capacity=*/2, /*shards=*/16)};
  EXPECT_EQ(tiny.shard_count(), 1u);
}

TEST(RedundancyCache, SingleFlightCoalescesConcurrentMisses) {
  Cache cache{config("rc_coalesce")};
  std::atomic<int> runs{0};
  std::atomic<int> correct{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = cache.get_or_run(77, [&]() -> Result<int> {
        ++runs;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 7;
      });
      if (r.has_value() && r.value() == 7) ++correct;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);  // one leader; everyone else coalesced or hit
  EXPECT_EQ(correct.load(), kThreads);
  // Each request counts exactly one hit-or-miss at lookup; a coalesced
  // waiter is a miss that then shared the leader's run.
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads);
  EXPECT_EQ(s.hits + s.coalesced, kThreads - 1);
}

TEST(RedundancyCache, CoalescingOffRunsEveryRequest) {
  auto cfg = config("rc_nocoalesce");
  cfg.coalesce = false;
  cfg.cache_failures = false;
  Cache cache{cfg};
  std::atomic<int> runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      (void)cache.get_or_run(5, [&]() -> Result<int> {
        ++runs;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return failure(FailureKind::timeout, "never stored");
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 4);
}

TEST(RedundancyCache, CancelledWaiterLeavesWithoutTheVerdict) {
  Cache cache{config("rc_cancel")};
  std::atomic<bool> leader_in{false};
  std::atomic<bool> release_leader{false};

  std::thread leader([&] {
    (void)cache.get_or_run(33, [&]() -> Result<int> {
      leader_in = true;
      while (!release_leader) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return 3;
    });
  });
  while (!leader_in) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  util::CancellationToken token;
  std::atomic<bool> waiter_back{false};
  std::thread waiter([&] {
    auto r = cache.get_or_run(33, token, [&]() -> Result<int> {
      ADD_FAILURE() << "waiter must not become a second leader";
      return -1;
    });
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(r.error().kind, FailureKind::unavailable);
    waiter_back = true;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(waiter_back);  // parked on the flight latch
  token.cancel();
  waiter.join();  // returns promptly with the unavailable verdict
  EXPECT_FALSE(release_leader);

  release_leader = true;
  leader.join();
  // The flight still settled: the verdict is cached for later requests.
  auto hit = cache.lookup(33);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value(), 3);
}

TEST(RedundancyCache, LeaderExceptionReleasesWaiters) {
  Cache cache{config("rc_throw")};
  std::atomic<bool> leader_in{false};
  std::atomic<bool> release{false};

  std::thread leader([&] {
    EXPECT_THROW(
        (void)cache.get_or_run(44,
                               [&]() -> Result<int> {
                                 leader_in = true;
                                 while (!release) {
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(1));
                                 }
                                 throw std::runtime_error{"variant blew up"};
                               }),
        std::runtime_error);
  });
  while (!leader_in) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::thread waiter([&] {
    auto r = cache.get_or_run(44, [&]() -> Result<int> { return -1; });
    // Either the settled crash verdict (parked before the throw) or a fresh
    // leader run after the flight retired — never a hang.
    if (!r.has_value()) {
      EXPECT_EQ(r.error().kind, FailureKind::crash);
    } else {
      EXPECT_EQ(r.value(), -1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release = true;
  leader.join();
  waiter.join();
}

TEST(RedundancyCache, HitPathPerformsZeroHeapAllocations) {
#ifdef REDUNDANCY_ALLOC_COUNTING_UNRELIABLE
  GTEST_SKIP() << "sanitizer build interposes the allocator";
#else
  Cache cache{config("rc_allocfree")};
  // Warm: the fill allocates (map node, LRU node) — that is the miss path.
  (void)cache.get_or_run(21, [&]() -> Result<int> { return 12; });
  (void)cache.get_or_run(21, [&]() -> Result<int> { return 12; });  // warm hit

  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 100; ++i) {
    auto r = cache.get_or_run(21, [&]() -> Result<int> { return 12; });
    ASSERT_TRUE(r.has_value());
  }
  EXPECT_EQ(g_allocs - before, 0u)
      << "cache-hit requests must not touch the heap";
#endif
}

/// Heap allocations on this thread during `fn`.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocs;
  fn();
  return g_allocs - before;
}

TEST(ParallelEvaluation, WarmJoinAllCallPerformsZeroHeapAllocations) {
#ifdef REDUNDANCY_ALLOC_COUNTING_UNRELIABLE
  GTEST_SKIP() << "sanitizer build interposes the allocator";
#else
  // Healthy NVP-3 over uint64_t (a no-quorum verdict would allocate its
  // failure text). The names are longer than the small-string buffer, so
  // a ballot that copied its variant's name per call would allocate.
  using PE = ParallelEvaluation<std::uint64_t, std::uint64_t>;
  auto version = [](std::string name) {
    return make_variant<std::uint64_t, std::uint64_t>(
        std::move(name), [](const std::uint64_t& x) -> Result<std::uint64_t> {
          return x * 3 + 1;
        });
  };
  auto nvp3 = [&](Concurrency mode) {
    return PE{{version("version-alpha-of-three"),
               version("version-bravo-of-three"),
               version("version-charlie-of-three")},
              majority_voter<std::uint64_t>(),
              mode};
  };
  constexpr std::uint64_t kCalls = 1'000;

  auto sequential = nvp3(Concurrency::sequential);
  (void)sequential.run(0);  // warm
  const std::uint64_t seq_allocs = allocations_in([&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      ASSERT_EQ(sequential.run(i).value(), i * 3 + 1);
    }
  });
  EXPECT_EQ(seq_allocs, 0u) << "sequential join-all calls touched the heap";

  // Threaded: past the placement streak the legs run on this thread. A leg
  // preempted past the inline budget sends the next call back to the pool,
  // whose task nodes may allocate here; such calls are not the inline path
  // and are left out of the count.
  auto threaded = nvp3(Concurrency::threaded);
  for (std::uint64_t i = 0; i < 2 * util::Placement::kInlineStreak; ++i) {
    (void)threaded.run(i);
  }
  std::uint64_t inline_calls = 0;
  std::uint64_t inline_allocs = 0;
  for (std::uint64_t i = 0; inline_calls < kCalls && i < 50 * kCalls; ++i) {
    const std::uint64_t submitted =
        util::ThreadPool::submitted_by_this_thread();
    Result<std::uint64_t> out = failure(FailureKind::crash);
    const std::uint64_t allocs =
        allocations_in([&] { out = threaded.run(i); });
    ASSERT_EQ(out.value(), i * 3 + 1);
    if (util::ThreadPool::submitted_by_this_thread() != submitted) continue;
    ++inline_calls;
    inline_allocs += allocs;
  }
  ASSERT_EQ(inline_calls, kCalls) << "too few calls ran inline";
  EXPECT_EQ(inline_allocs, 0u) << "inline join-all calls touched the heap";
#endif
}

/// A healthy uint64_t component named `name` that busy-waits `spin_ns`
/// before it answers. (Unused where the counting tests are skipped.)
[[maybe_unused]] Variant<std::uint64_t, std::uint64_t> healthy(
    std::string name, std::uint64_t spin_ns = 0) {
  return make_variant<std::uint64_t, std::uint64_t>(
      std::move(name),
      [spin_ns](const std::uint64_t& x) -> Result<std::uint64_t> {
        const std::uint64_t t0 = obs::now_ns();
        while (obs::now_ns() - t0 < spin_ns) {
        }
        return x * 3 + 1;
      });
}

/// 28 characters: past the small-string buffer, so a per-call copy of a
/// component's name would allocate.
[[maybe_unused]] std::string long_name(char tag) {
  return std::string(27, 'n') + tag;
}

/// Heap allocations per call over `calls` warmed-up calls of `run(i)`,
/// each checked against the healthy answer.
template <typename Run>
double allocations_per_call(Run&& run, std::uint64_t calls) {
  (void)run(0);  // warm
  const std::uint64_t allocs = allocations_in([&] {
    for (std::uint64_t i = 0; i < calls; ++i) {
      ASSERT_EQ(run(i).value(), i * 3 + 1);
    }
  });
  return static_cast<double>(allocs) / static_cast<double>(calls);
}

TEST(SequentialPatterns, WarmHealthyCallsPerformZeroHeapAllocations) {
#ifdef REDUNDANCY_ALLOC_COUNTING_UNRELIABLE
  GTEST_SKIP() << "sanitizer build interposes the allocator";
#else
  using SA = SequentialAlternatives<std::uint64_t, std::uint64_t>;
  SA alternatives{{healthy(long_name('p')), healthy(long_name('a'))},
                  accept_all<std::uint64_t, std::uint64_t>()};
  EXPECT_EQ(allocations_per_call([&](std::uint64_t i) {
              return alternatives.run(i);
            }, 1'000),
            0.0)
      << "sequential alternatives touched the heap";

  using PS = ParallelSelection<std::uint64_t, std::uint64_t>;
  PS selection{{PS::Checked{healthy(long_name('p')),
                            accept_all<std::uint64_t, std::uint64_t>()},
                PS::Checked{healthy(long_name('s')),
                            accept_all<std::uint64_t, std::uint64_t>()}}};
  EXPECT_EQ(allocations_per_call([&](std::uint64_t i) {
              return selection.run(i);
            }, 1'000),
            0.0)
      << "sequential parallel selection touched the heap";
#endif
}

TEST(SequentialPatterns, WarmInlineHedgedCallsPerformZeroHeapAllocations) {
#ifdef REDUNDANCY_ALLOC_COUNTING_UNRELIABLE
  GTEST_SKIP() << "sanitizer build interposes the allocator";
#else
  // Once its primary has earned the caller, a hedged call runs the
  // alternatives on this thread and builds no race. A primary preempted
  // past the inline budget sends the next call back to the race, whose
  // state and task nodes allocate; such calls are left out of the count.
  using SA = SequentialAlternatives<std::uint64_t, std::uint64_t>;
  SA hedged{{healthy(long_name('p')), healthy(long_name('a'))},
            accept_all<std::uint64_t, std::uint64_t>()};
  hedged.set_obs_label("alloc_hedged");
  typename SA::Options::Hedge hedge;
  hedge.enabled = true;
  hedged.set_hedge(hedge);
  for (std::uint64_t i = 0; i < 2 * util::Placement::kInlineStreak; ++i) {
    (void)hedged.run(i);
  }
  constexpr std::uint64_t kCalls = 1'000;
  std::uint64_t inline_calls = 0;
  std::uint64_t inline_allocs = 0;
  for (std::uint64_t i = 0; inline_calls < kCalls && i < 50 * kCalls; ++i) {
    const std::uint64_t submitted =
        util::ThreadPool::submitted_by_this_thread();
    Result<std::uint64_t> out = failure(FailureKind::crash);
    const std::uint64_t allocs = allocations_in([&] { out = hedged.run(i); });
    ASSERT_EQ(out.value(), i * 3 + 1);
    if (util::ThreadPool::submitted_by_this_thread() != submitted) continue;
    ++inline_calls;
    inline_allocs += allocs;
  }
  util::ThreadPool::shared().wait_idle();
  ASSERT_EQ(inline_calls, kCalls) << "too few calls ran inline";
  EXPECT_EQ(inline_allocs, 0u) << "inline hedged calls touched the heap";
#endif
}

TEST(ParallelEvaluation, IncrementalRevotesCopyNoVariantNames) {
#ifdef REDUNDANCY_ALLOC_COUNTING_UNRELIABLE
  GTEST_SKIP() << "sanitizer build interposes the allocator";
#else
  // Staggered legs make a call vote in rounds: a alone (no majority yet),
  // then a and b (a majority; c finishes as a straggler). Such a call
  // allocates its race state, its arrivals, the placeholders of b and c
  // and the verdict text of the round without a majority (five), and pool
  // task nodes until the node caches are warm. Nothing depends on the
  // variants' names: every round fills the instance's ballot box, whose
  // names are written once.
  using PE = ParallelEvaluation<std::uint64_t, std::uint64_t>;
  auto per_call = [](const std::string& prefix) {
    PE pe{{healthy(prefix + "a"), healthy(prefix + "b", 200'000),
           healthy(prefix + "c", 400'000)},
          majority_voter<std::uint64_t>(),
          Concurrency::threaded,
          Adjudication::incremental};
    return allocations_per_call([&](std::uint64_t i) { return pe.run(i); },
                                500);
  };
  const double short_names = per_call("n");
  const double long_names = per_call(std::string(27, 'n'));
  util::ThreadPool::shared().wait_idle();  // the stragglers retire
  EXPECT_NEAR(long_names, short_names, 0.5);
  EXPECT_LT(long_names, 6.0);
#endif
}

}  // namespace
}  // namespace redundancy::core
