// Memory-layout regression guard (tier1).
//
// The mechanical-sympathy pass (sharded injector, aligned hot state) only
// helps while the layout invariants hold: hot structs must not span cache
// lines they share with unrelated writers, and adjacent instances in arrays
// must not share a line. Compile-time checks live as static_asserts next to
// the structs themselves; this test adds the checks that need live objects
// (heap alignment of over-aligned news, shard strides, address distances),
// so a refactor that silently drops an alignas fails here instead of
// shipping a false-sharing regression.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "core/redundancy_cache.hpp"
#include "obs/counter.hpp"
#include "obs/histogram.hpp"
#include "util/cacheline.hpp"
#include "util/chase_lev_deque.hpp"
#include "util/thread_pool.hpp"
#include "util/topology.hpp"

namespace redundancy {
namespace {

using util::kCacheLine;

std::uintptr_t line_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) / kCacheLine;
}

TEST(Layout, CacheLineConstantIsSane) {
  static_assert(kCacheLine >= 64, "destructive interference is at least 64B");
  static_assert((kCacheLine & (kCacheLine - 1)) == 0, "power of two");
}

TEST(Layout, TaskNodeOccupiesWholeLines) {
  using util::pool_detail::TaskNode;
  static_assert(alignof(TaskNode) >= kCacheLine);
  static_assert(sizeof(TaskNode) % kCacheLine == 0);
  // Heap allocations of over-aligned types must honour the alignment
  // (C++17 aligned new) — this is what the node recycler relies on.
  auto* node = new TaskNode();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(node) % kCacheLine, 0u);
  delete node;
}

TEST(Layout, WorkerAndInjectorLaneDoNotShareLines) {
  using util::pool_detail::InjectorLane;
  using util::pool_detail::Worker;
  static_assert(alignof(Worker) >= kCacheLine);
  static_assert(sizeof(Worker) % kCacheLine == 0);
  static_assert(alignof(InjectorLane) >= kCacheLine);
  static_assert(sizeof(InjectorLane) % kCacheLine == 0);
  // The lane's lock-free emptiness probe must sit on a different line from
  // the mutex+chain the lock traffic bounces: idle workers poll `size`
  // without disturbing active submitters.
  InjectorLane lane;
  EXPECT_NE(line_of(&lane.size), line_of(&lane.m));
  EXPECT_NE(line_of(&lane.size), line_of(&lane.head));
}

TEST(Layout, ChaseLevIndicesLiveOnSeparateLines) {
  util::ChaseLevDeque<void*> deque;
  // Owner-written bottom and thief-CASed top on one line would make every
  // push invalidate every thief — the single hottest false-sharing pair.
  EXPECT_NE(line_of(deque.top_addr()), line_of(deque.bottom_addr()));
}

TEST(Layout, PoolGlobalCountersDoNotShareLines) {
  util::ThreadPool pool{2};
  EXPECT_NE(line_of(pool.pending_addr()), line_of(pool.active_addr()));
  EXPECT_NE(line_of(pool.pending_addr()), line_of(pool.parked_count_addr()));
  EXPECT_NE(line_of(pool.active_addr()), line_of(pool.parked_count_addr()));
}

TEST(Layout, CounterShardsAreAlignedAndScaled) {
  static_assert(obs::Counter::shard_stride() == kCacheLine,
                "one shard, one line");
  obs::Counter counter;
  const std::size_t n = counter.shards();
  EXPECT_GE(n, 4u);
  EXPECT_LE(n, 64u);
  EXPECT_EQ(n & (n - 1), 0u) << "shard count must be a power of two";
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(counter.shard_addr(i)) %
                  kCacheLine,
              0u)
        << "shard " << i << " not line-aligned";
    if (i > 0) {
      EXPECT_NE(line_of(counter.shard_addr(i)),
                line_of(counter.shard_addr(i - 1)))
          << "adjacent counter shards share a line";
    }
  }
}

TEST(Layout, HistogramShardsAreAlignedAndScaled) {
  static_assert(obs::Histogram::shard_stride() % kCacheLine == 0);
  obs::Histogram histogram;
  const std::size_t n = histogram.shards();
  EXPECT_GE(n, 4u);
  EXPECT_LE(n, 16u);
  EXPECT_EQ(n & (n - 1), 0u) << "shard count must be a power of two";
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(histogram.shard_addr(i)) %
                  kCacheLine,
              0u);
  }
}

TEST(Layout, CacheShardHeadersAreLineAligned) {
  using Cache = core::RedundancyCache<std::string>;
  static_assert(Cache::shard_alignment() >= kCacheLine,
                "cache shard headers must start on their own line");
  Cache cache{{.capacity = 64}};
  for (std::size_t i = 0; i < cache.shard_count(); ++i) {
    EXPECT_EQ(
        reinterpret_cast<std::uintptr_t>(cache.shard_addr(i)) % kCacheLine,
        0u)
        << "cache shard " << i << " not line-aligned";
  }
}

TEST(Layout, MetricShardCountsScaleWithTheMachine) {
  // The counts derive from hardware_concurrency, clamped; both must agree
  // with the policy in obs/shard.hpp on this machine.
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw < 4) hw = 4;
  if (hw > 64) hw = 64;
  const std::size_t pow2 = util::round_up_pow2(hw);
  obs::Counter counter;
  obs::Histogram histogram;
  EXPECT_EQ(counter.shards(), pow2);
  EXPECT_EQ(histogram.shards(), pow2 < 16 ? pow2 : 16);
}

TEST(Layout, TopologyProbeYieldsUsableCluster) {
  const util::Topology& topo = util::topology();
  EXPECT_GE(topo.smt_width, 1u);
  EXPECT_GE(topo.cluster_size, topo.smt_width);
  // Fallback or probed, the cluster size must be usable as a divisor.
  EXPECT_GT(topo.cluster_size, 0u);
}

}  // namespace
}  // namespace redundancy
