// RedundancyCache — memoization of adjudicated verdicts, the amortization
// layer that makes deliberate redundancy deployable at traffic scale.
//
// Every run() of a Figure-1 pattern executes N variants plus an adjudicator;
// the paper observes that this repeated execution is deliberate redundancy's
// dominant cost. For deterministic (pure) variant sets the adjudicated
// Result is a function of the input alone, so a popular input need only pay
// the N-fold cost once. The cache provides three things the hot path needs:
//
//   * Sharded storage. Power-of-two shard count, one mutex per shard, keys
//     spread by mix64 — concurrent readers on different keys never contend.
//     Each shard is an LRU ring over an open hash map; a hit is one lock,
//     one probe, one splice, zero allocations.
//   * TinyLFU admission. A 4-bit count-min sketch estimates each key's
//     popularity; on a full shard a new key must out-score the LRU victim
//     to displace it, so one-hit-wonder scans cannot flush the hot set.
//     Sketch counters halve once the sample window saturates (aging).
//   * Single-flight coalescing. Concurrent requests for the same missing
//     key share one execution: the leader runs the variants, waiters park
//     on a custom latch (mutex + condvar, no std::shared_future) that is
//     cancellation-safe — a waiter whose CancellationToken fires leaves
//     immediately with a failure verdict and the flight carries on.
//
// Invalidation is epoch-based on two levels: the process-wide epoch
// (core/cache_epoch.hpp) advanced by rejuvenation / microreboot restart
// events, and a per-cache epoch advanced by invalidate_all() (e.g. the SQL
// NVP server invalidates its select cache on every mutation). Entries store
// the epoch sum at fill time; both counters are monotonic, so any bump
// strands stale entries, which are reaped lazily on touch. A TTL bounds
// staleness for workloads with no invalidation signal at all.
//
// Stats are exported through obs::MetricsRegistry as exact, always-on
// counters (cache.hits / misses / coalesced / admits / rejects / evictions /
// invalidations) carrying the cache's technique= label, so they render
// byte-deterministically alongside the other technique series.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cache_epoch.hpp"
#include "core/result.hpp"
#include "obs/clock.hpp"
#include "obs/obs.hpp"
#include "util/cacheline.hpp"
#include "util/checksum.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {

struct CacheConfig {
  /// Total entries across all shards (per-shard capacity is derived).
  std::size_t capacity = 1024;
  /// Shard count; 0 = derive from hardware concurrency. Rounded up to a
  /// power of two so shard selection is a mask, not a division.
  std::size_t shards = 0;
  /// Entries older than this are misses (0 = no TTL).
  std::uint64_t ttl_ns = 0;
  /// Coalesce concurrent identical requests onto one execution.
  bool coalesce = true;
  /// Memoize failure verdicts too (off: only successes are cached, so a
  /// transient fault is retried by the next request).
  bool cache_failures = false;
  /// technique= label for the cache.* metric series.
  std::string label = "cache";
};

/// Point-in-time counter totals (exact; sums of the registry counters).
struct CacheStatsSnapshot {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;   ///< waiters served by another request's run
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;     ///< denied admission by TinyLFU
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  ///< stale entries reaped (epoch / TTL)

  [[nodiscard]] double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

namespace cache_detail {

/// Shared never-cancelled token for the tokenless get_or_run overload. One
/// process-wide instance: a function-local static inside the overload would
/// be re-instantiated (and re-allocated) per caller lambda type, costing the
/// first hit at every new call site a heap allocation.
inline const util::CancellationToken& never_token() {
  static const util::CancellationToken never;
  return never;
}

/// 4-bit count-min sketch with aging — the TinyLFU popularity estimator.
/// Four rows, each `width` nibbles; increments saturate at 15 and every
/// counter halves once `sample_window` increments have been observed, so
/// the estimate tracks *recent* popularity.
class FrequencySketch {
 public:
  explicit FrequencySketch(std::size_t capacity) {
    std::size_t width = 8;
    while (width < capacity * 8) width <<= 1;  // nibbles per row, pow2
    mask_ = width - 1;
    table_.assign(width / 2 * kRows, 0);  // two nibbles per byte
    sample_window_ = capacity * 10 < 640 ? 640 : capacity * 10;
  }

  void record(std::uint64_t key) noexcept {
    bool grew = false;
    for (std::size_t row = 0; row < kRows; ++row) {
      grew |= increment(row, index(key, row));
    }
    if (grew && ++samples_ >= sample_window_) age();
  }

  [[nodiscard]] std::uint8_t estimate(std::uint64_t key) const noexcept {
    std::uint8_t best = 15;
    for (std::size_t row = 0; row < kRows; ++row) {
      const std::uint8_t v = nibble(row, index(key, row));
      if (v < best) best = v;
    }
    return best;
  }

 private:
  static constexpr std::size_t kRows = 4;

  [[nodiscard]] std::size_t index(std::uint64_t key,
                                  std::size_t row) const noexcept {
    // Distinct avalanched streams per row from one mix64 chain.
    return static_cast<std::size_t>(
               util::mix64(key + 0x9e3779b97f4a7c15ULL * (row + 1))) &
           mask_;
  }

  [[nodiscard]] std::uint8_t nibble(std::size_t row,
                                    std::size_t i) const noexcept {
    const std::uint8_t byte = table_[row * (mask_ + 1) / 2 + i / 2];
    return (i & 1) ? byte >> 4 : byte & 0x0f;
  }

  bool increment(std::size_t row, std::size_t i) noexcept {
    std::uint8_t& byte = table_[row * (mask_ + 1) / 2 + i / 2];
    const std::uint8_t v = (i & 1) ? byte >> 4 : byte & 0x0f;
    if (v >= 15) return false;
    byte = (i & 1) ? static_cast<std::uint8_t>((byte & 0x0f) | ((v + 1) << 4))
                   : static_cast<std::uint8_t>((byte & 0xf0) | (v + 1));
    return true;
  }

  void age() noexcept {
    for (auto& byte : table_) {
      byte = static_cast<std::uint8_t>(((byte >> 1) & 0x77));  // halve both nibbles
    }
    samples_ = 0;
  }

  std::vector<std::uint8_t> table_;
  std::size_t mask_ = 0;
  std::size_t samples_ = 0;
  std::size_t sample_window_ = 640;
};

}  // namespace cache_detail

template <typename Out>
class RedundancyCache {
  static_assert(std::is_copy_constructible_v<Out>,
                "RedundancyCache serves hits by copy; Out must be copyable");

 public:
  explicit RedundancyCache(CacheConfig config = {})
      : config_(std::move(config)),
        hits_(obs::counter("cache.hits", config_.label)),
        misses_(obs::counter("cache.misses", config_.label)),
        coalesced_(obs::counter("cache.coalesced", config_.label)),
        admits_(obs::counter("cache.admits", config_.label)),
        rejects_(obs::counter("cache.rejects", config_.label)),
        evictions_(obs::counter("cache.evictions", config_.label)),
        invalidations_(obs::counter("cache.invalidations", config_.label)) {
    std::size_t shards = config_.shards;
    if (shards == 0) {
      const std::size_t hw = std::thread::hardware_concurrency();
      shards = hw < 2 ? 2 : hw;
    }
    std::size_t pow2 = 1;
    while (pow2 < shards) pow2 <<= 1;
    if (config_.capacity == 0) config_.capacity = 1;
    if (pow2 > config_.capacity) pow2 = 1;  // tiny caches: one shard
    shard_mask_ = pow2 - 1;
    const std::size_t per_shard =
        (config_.capacity + pow2 - 1) / pow2;  // ceil
    shards_.reserve(pow2);
    for (std::size_t i = 0; i < pow2; ++i) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  RedundancyCache(const RedundancyCache&) = delete;
  RedundancyCache& operator=(const RedundancyCache&) = delete;

  /// Probe for a live entry. A hit bumps recency and the TinyLFU sketch and
  /// returns a copy of the verdict; stale entries (epoch or TTL) are reaped
  /// and count as misses. Allocation-free on the hit path.
  std::optional<Result<Out>> lookup(std::uint64_t key) {
    Shard& shard = shard_of(key);
    std::lock_guard lock(shard.m);
    shard.sketch.record(key);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.add();
      return std::nullopt;
    }
    if (stale(it->second)) {
      invalidations_.add();
      misses_.add();
      shard.lru.erase(it->second.lru_it);
      shard.map.erase(it);
      return std::nullopt;
    }
    // Most-recently-used: splice relinks the existing node, no allocation.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    hits_.add();
    return it->second.value;
  }

  /// Insert (or refresh) the verdict under `key`, subject to admission.
  /// Failures are stored only when config().cache_failures.
  void store(std::uint64_t key, const Result<Out>& value) {
    if (!value.has_value() && !config_.cache_failures) return;
    Shard& shard = shard_of(key);
    std::lock_guard lock(shard.m);
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t ep = epoch();
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      it->second.value = value;
      it->second.stored_ns = now;
      it->second.epoch = ep;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      return;
    }
    if (shard.map.size() >= shard.capacity) {
      // TinyLFU admission duel: the newcomer must beat the LRU victim's
      // recorded popularity to displace it.
      const std::uint64_t victim = shard.lru.back();
      if (shard.sketch.estimate(key) < shard.sketch.estimate(victim)) {
        rejects_.add();
        return;
      }
      shard.map.erase(victim);
      shard.lru.pop_back();
      evictions_.add();
    }
    shard.lru.push_front(key);
    shard.map.emplace(key, Entry{value, now, ep, shard.lru.begin()});
    admits_.add();
  }

  /// Memoized execution with single-flight coalescing: a hit returns the
  /// cached verdict; on a miss one caller (the leader) runs `run` while
  /// concurrent callers for the same key park on the flight's latch and
  /// share the leader's verdict. `token` frees a parked waiter early: it
  /// returns an `unavailable` failure without waiting for the leader.
  template <typename Fn>
  Result<Out> get_or_run(std::uint64_t key, const util::CancellationToken& token,
                         Fn&& run) {
    if (auto hit = lookup(key)) return std::move(*hit);
    if (!config_.coalesce) {
      Result<Out> fresh = run();
      store(key, fresh);
      return fresh;
    }

    Shard& shard = shard_of(key);
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
      std::lock_guard lock(shard.m);
      auto [it, inserted] = shard.inflight.try_emplace(key);
      if (inserted) {
        it->second = std::make_shared<Flight>();
        leader = true;
      }
      flight = it->second;
    }

    if (!leader) {
      std::unique_lock latch(flight->m);
      util::ThreadPool::shared().help_until(latch, flight->cv, [&] {
        return flight->done || token.cancelled();
      });
      if (!flight->done) {
        return Result<Out>{failure(FailureKind::unavailable,
                                   "cancelled while awaiting coalesced run")};
      }
      coalesced_.add();
      return *flight->result;
    }

    // Leader: execute, publish to the cache and to the latch, then retire
    // the flight so later requests start fresh. The catch arm keeps waiters
    // from parking forever if the variant set throws.
    Result<Out> fresh = [&]() -> Result<Out> {
      try {
        return run();
      } catch (...) {
        settle(shard, key, flight,
               Result<Out>{failure(FailureKind::crash,
                                   "exception during coalesced run")});
        throw;
      }
    }();
    store(key, fresh);
    settle(shard, key, flight, fresh);
    return fresh;
  }

  /// get_or_run with no cancellation: waiters park until the leader settles.
  template <typename Fn>
  Result<Out> get_or_run(std::uint64_t key, Fn&& run) {
    return get_or_run(key, cache_detail::never_token(), std::forward<Fn>(run));
  }

  /// Strand every current entry (lazy reap on next touch). Wait-free.
  void invalidate_all() noexcept {
    local_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drop every entry eagerly (tests, reconfiguration).
  void clear() {
    for (auto& shard : shards_) {
      std::lock_guard lock(shard->m);
      shard->map.clear();
      shard->lru.clear();
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) {
      std::lock_guard lock(shard->m);
      n += shard->map.size();
    }
    return n;
  }

  [[nodiscard]] CacheStatsSnapshot stats() const noexcept {
    return {hits_.total(),    misses_.total(),    coalesced_.total(),
            admits_.total(),  rejects_.total(),   evictions_.total(),
            invalidations_.total()};
  }

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Layout introspection for tests/util/layout_test.cpp: the per-shard
  /// header (mutex first) must start on its own cache line.
  [[nodiscard]] static constexpr std::size_t shard_alignment() noexcept {
    return alignof(Shard);
  }
  [[nodiscard]] const void* shard_addr(std::size_t i) const noexcept {
    return shards_[i].get();
  }

 private:
  struct Entry {
    Result<Out> value;
    std::uint64_t stored_ns = 0;
    std::uint64_t epoch = 0;  ///< global + local epoch sum at fill time
    typename std::list<std::uint64_t>::iterator lru_it;
  };

  /// The single-flight latch: plain mutex + condvar, no shared_future, so
  /// waiters can time out / cancel without tearing down the flight.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::optional<Result<Out>> result;
  };

  // Cache-line aligned so the shard header — the mutex every operation on
  // the shard spins through — starts on its own line. Shards are allocated
  // individually, so the alignment (not allocator luck) is what keeps one
  // shard's lock traffic from invalidating a neighbouring allocation
  // (FL001); layout_test.cpp asserts the alignment survives refactors.
  struct alignas(util::kCacheLine) Shard {
    explicit Shard(std::size_t cap) : capacity(cap < 1 ? 1 : cap), sketch(cap) {
      map.reserve(capacity + 1);
    }
    std::mutex m;
    std::size_t capacity;
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> lru;  ///< front = most recent
    std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> inflight;
    cache_detail::FrequencySketch sketch;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t key) noexcept {
    return *shards_[util::mix64(key) & shard_mask_];
  }

  /// Both epochs are monotonic, so their sum strands an entry the moment
  /// either advances.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return cache_epoch() + local_epoch_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool stale(const Entry& e) const noexcept {
    if (e.epoch != epoch()) return true;
    return config_.ttl_ns != 0 && obs::now_ns() - e.stored_ns > config_.ttl_ns;
  }

  void settle(Shard& shard, std::uint64_t key,
              const std::shared_ptr<Flight>& flight, Result<Out> verdict) {
    {
      std::lock_guard latch(flight->m);
      flight->result.emplace(std::move(verdict));
      flight->done = true;
    }
    flight->cv.notify_all();
    std::lock_guard lock(shard.m);
    shard.inflight.erase(key);
  }

  CacheConfig config_;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> local_epoch_{0};

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& coalesced_;
  obs::Counter& admits_;
  obs::Counter& rejects_;
  obs::Counter& evictions_;
  obs::Counter& invalidations_;
};

}  // namespace redundancy::core
