// E20. Acceptance experiment for the lock-free execution engine: the
// Chase–Lev pool + batched submission must beat the PR-4 mutex engine by
// >= 2x on an overhead-bound campaign workload. The baseline engine is a
// self-contained copy of the PR-4 pool (mutex+deque per worker,
// round-robin external post, global broadcast sleep_cv, one lock + one
// notify per task); the candidate is util::ThreadPool (lock-free
// Chase–Lev deques, injector, per-worker parking, batched submission).
//
// Part A (the gate) — fine-grained campaign throughput. A campaign
// driver, external to both pools, pushes short tasks (~10 ns of mixing —
// far under the 1 us bound, so engine bookkeeping dominates) in waves,
// waiting for pool quiescence between waves. The PR-4 engine submits the
// way PR-4 could: one post — queue lock, counter, notify — per task. The
// new engine submits the whole wave through submit_batch: one injector
// splice, one pending epoch, one wake-up. Every slot is checked after
// the run, so a dropped task or lost wake-up fails loudly. Gate:
// new/old throughput >= 2x.
//
// Part B (reported) — pattern fan-out latency. The Fig-1 serving shape:
// one shard per worker, each request fanning out 3 variants through
// run_all/BatchRunner and majority-voting the outputs through the
// word-wise voter. Shows the per-request barrier cost trajectory; no
// gate (the fan-out is barrier-bound, not submission-bound).
//
// Part C (reported) — steal latency. One owner thread feeds a
// ChaseLevDeque while three thieves spin stealing; each successful steal
// is timed around the steal() call itself. Reported as p50/p95/p99.
//
// Part D (reported) — contended external submission. Eight submitter
// threads hammer post() concurrently on the pool's one injector. Per-post
// latency is sampled inside the submitters, throughput from the wall
// clock. No gate: eight threads looping post() is not the traffic the pool
// serves (EXPERIMENTS.md E21).
//
// Part E (reported) — steal distribution. One external submitter feeds
// the injector in batches while every worker must pull the backlog out
// through injector drains and steal sweeps; reported as task/s.
//
// Part F (reported) — metric shard throughput. All threads hammer one
// obs::Counter and one obs::Histogram; totals are checked exactly (the
// sharding must never lose an increment).
//
// Emits BENCH_exp_engine_throughput.json in the bench_json_main schema
// (percentiles are exact order statistics over the recorded samples).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/variant.hpp"
#include "core/voters.hpp"
#include "obs/obs.hpp"
#include "util/chase_lev_deque.hpp"
#include "util/thread_pool.hpp"
#include "util/unique_function.hpp"

using namespace redundancy;

namespace {

constexpr std::size_t kCampaignTasks = 200'000;  // Part A, per engine/round
constexpr std::size_t kWave = 2048;              // bounded backlog per wave
constexpr std::size_t kRequests = 200'000;       // Part B, per engine/round
constexpr int kRounds = 3;                  // best-of, sheds scheduler noise
constexpr std::size_t kVariants = 3;
constexpr double kSpeedupGate = 2.0;

constexpr std::size_t kStealItems = 400'000;
constexpr std::size_t kThieves = 3;

constexpr std::size_t kSubmitters = 8;       // Part D contended submitters
constexpr std::size_t kSubmitTasks = 8'000;  // per submitter per round

constexpr std::size_t kFanoutTasks = 100'000;  // Part E, per round
constexpr std::size_t kMetricOps = 200'000;    // Part F, per thread per round

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A fine-grained campaign task: ~10 ns of integer mixing. Short enough
/// that the engine's submit/claim bookkeeping dominates the measurement.
int campaign_body(int request) {
  std::uint64_t s = static_cast<std::uint64_t>(request) * 0x9E3779B97F4A7C15ull;
  return request ^ static_cast<int>(splitmix(s) & 0xFF);
}

/// A short variant body: a few dozen ns of integer mixing. Short enough
/// that scheduling cost dominates, long enough not to be folded away.
int variant_body(int request, int salt) {
  std::uint64_t s = static_cast<std::uint64_t>(request) * 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 8; ++i) acc ^= splitmix(s);
  // Same output for every salt: the 3 ballots agree and the vote succeeds.
  (void)salt;
  return request ^ static_cast<int>(acc & 0x7);
}

// ---------------------------------------------------------------------------
// The PR-4 engine, embedded verbatim in miniature: per-worker mutex+deque,
// round-robin external post, one global broadcast condvar, one post (lock +
// counter + notify) per task. Kept here so the gate always measures against
// the real predecessor regardless of what util::ThreadPool becomes.
// ---------------------------------------------------------------------------
class MutexPool {
 public:
  using Task = util::UniqueFunction<void()>;

  explicit MutexPool(std::size_t threads) {
    queues_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      queues_.push_back(std::make_unique<WorkerQueue>());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~MutexPool() {
    {
      std::lock_guard lock(sleep_mutex_);
      stopping_.store(true, std::memory_order_release);
    }
    sleep_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void post(Task task) {
    std::size_t qi;
    if (tls_pool == this) {
      qi = tls_index;
    } else {
      qi = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    }
    {
      std::lock_guard lock(queues_[qi]->m);
      queues_[qi]->q.push_back(std::move(task));
    }
    pending_.fetch_add(1, std::memory_order_release);
    sleep_cv_.notify_one();
  }

  bool try_run_one() {
    Task task;
    const std::size_t start = tls_pool == this ? tls_index : 0;
    const std::size_t n = queues_.size();
    bool got = false;
    for (std::size_t offset = 0; offset < n && !got; ++offset) {
      WorkerQueue& victim = *queues_[(start + offset) % n];
      std::lock_guard lock(victim.m);
      if (!victim.q.empty()) {
        task = std::move(victim.q.front());
        victim.q.pop_front();
        active_.fetch_add(1, std::memory_order_release);
        pending_.fetch_sub(1, std::memory_order_release);
        got = true;
      }
    }
    if (!got) return false;
    task();
    active_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  void run_all(std::vector<Task> tasks) {
    if (tasks.empty()) return;
    struct State {
      std::mutex m;
      std::condition_variable cv;
      std::size_t remaining;
    };
    State st;
    st.remaining = tasks.size();
    for (auto& t : tasks) {
      post(Task{[st_ptr = &st, task = &t] {
        (*task)();
        std::lock_guard lock(st_ptr->m);
        --st_ptr->remaining;
        st_ptr->cv.notify_all();
      }});
    }
    const bool helper = tls_pool == this;
    std::unique_lock lock(st.m);
    while (st.remaining != 0) {
      if (helper) {
        lock.unlock();
        const bool ran = try_run_one();
        lock.lock();
        if (st.remaining == 0) break;
        if (ran) continue;
      }
      st.cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Quiescence probe, mirroring util::ThreadPool::idle(): claims raise
  /// active_ before dropping pending_, so this never reads true while a
  /// task is queued or running.
  [[nodiscard]] bool idle() const noexcept {
    return pending_.load(std::memory_order_acquire) == 0 &&
           active_.load(std::memory_order_acquire) == 0;
  }

 private:
  struct WorkerQueue {
    std::mutex m;
    std::deque<Task> q;
  };

  void worker_loop(std::size_t self) {
    tls_pool = this;
    tls_index = self;
    for (;;) {
      Task task;
      if (try_pop(self, task)) {
        task();
        active_.fetch_sub(1, std::memory_order_release);
        continue;
      }
      if (stopping_.load(std::memory_order_acquire) &&
          pending_.load(std::memory_order_acquire) == 0) {
        return;
      }
      std::unique_lock lock(sleep_mutex_);
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
        return stopping_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_acquire) > 0;
      });
    }
  }

  bool try_pop(std::size_t self, Task& out) {
    {
      WorkerQueue& mine = *queues_[self];
      std::lock_guard lock(mine.m);
      if (!mine.q.empty()) {
        out = std::move(mine.q.back());
        mine.q.pop_back();
        active_.fetch_add(1, std::memory_order_release);
        pending_.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
    const std::size_t n = queues_.size();
    for (std::size_t offset = 1; offset < n; ++offset) {
      WorkerQueue& victim = *queues_[(self + offset) % n];
      std::lock_guard lock(victim.m);
      if (!victim.q.empty()) {
        out = std::move(victim.q.front());
        victim.q.pop_front();
        active_.fetch_add(1, std::memory_order_release);
        pending_.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
    return false;
  }

  static thread_local MutexPool* tls_pool;
  static thread_local std::size_t tls_index;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stopping_{false};
};

thread_local MutexPool* MutexPool::tls_pool = nullptr;
thread_local std::size_t MutexPool::tls_index = 0;

// ---------------------------------------------------------------------------

struct Series {
  std::vector<double> latency_ns;
  double mean_ns = 0.0;
  [[nodiscard]] double ops_per_sec() const {
    return mean_ns > 0.0 ? 1e9 / mean_ns : 0.0;
  }
  [[nodiscard]] double percentile(double q) const {
    if (latency_ns.empty()) return 0.0;
    std::vector<double> sorted = latency_ns;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = std::min(
        sorted.size() - 1, std::size_t(q / 100.0 * double(sorted.size())));
    return sorted[idx];
  }
};

// --------------------------------------------------------------------------
// Part A: fine-grained campaign (the gate)
// --------------------------------------------------------------------------

/// Drives kCampaignTasks short tasks through an engine in waves of kWave,
/// waiting for quiescence between waves (bounded backlog; every wave also
/// exercises the full sleep/wake cycle). `submit_wave(base, end)` is the
/// engine-specific submission hook. Mean ns/task comes from the wall
/// clock over all waves; the percentile spread from per-wave means.
template <typename SubmitWave, typename Idle>
Series run_fine_campaign(SubmitWave submit_wave, Idle idle) {
  Series s;
  s.latency_ns.reserve(kCampaignTasks / kWave + 1);
  const std::uint64_t t0 = obs::now_ns();
  for (std::size_t base = 0; base < kCampaignTasks; base += kWave) {
    const std::size_t end = std::min(base + kWave, kCampaignTasks);
    const std::uint64_t w0 = obs::now_ns();
    submit_wave(base, end);
    while (!idle()) std::this_thread::yield();
    s.latency_ns.push_back(double(obs::now_ns() - w0) / double(end - base));
  }
  s.mean_ns = double(obs::now_ns() - t0) / double(kCampaignTasks);
  return s;
}

/// Every slot must hold its task's output — a dropped task or lost
/// wake-up fails the experiment, it does not just skew it.
void check_campaign(const std::vector<int>& out, const char* engine) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != campaign_body(int(i))) {
      std::fprintf(stderr, "exp_engine_throughput: %s dropped task %zu\n",
                   engine, i);
      std::exit(2);
    }
  }
}

Series bench_mutex_campaign(std::size_t threads) {
  Series best;
  for (int r = 0; r < kRounds; ++r) {
    MutexPool pool{threads};
    std::vector<int> out(kCampaignTasks, -1);
    Series s = run_fine_campaign(
        [&pool, &out](std::size_t base, std::size_t end) {
          // The PR-4 submission interface: one post — one queue lock, one
          // counter bump, one notify — per task.
          for (std::size_t i = base; i < end; ++i) {
            pool.post(MutexPool::Task{
                [&out, i] { out[i] = campaign_body(int(i)); }});
          }
        },
        [&pool] { return pool.idle(); });
    check_campaign(out, "mutex engine");
    if (r == 0 || s.mean_ns < best.mean_ns) best = std::move(s);
  }
  return best;
}

Series bench_lockfree_campaign(std::size_t threads) {
  Series best;
  for (int r = 0; r < kRounds; ++r) {
    util::ThreadPool pool{threads};
    std::vector<int> out(kCampaignTasks, -1);
    std::vector<util::ThreadPool::Task> wave;
    wave.reserve(kWave);
    Series s = run_fine_campaign(
        [&pool, &out, &wave](std::size_t base, std::size_t end) {
          // The PR-5 interface: the whole wave in one submit_batch — one
          // injector splice, one pending epoch, one wake-up.
          wave.clear();
          for (std::size_t i = base; i < end; ++i) {
            wave.emplace_back([&out, i] { out[i] = campaign_body(int(i)); });
          }
          pool.submit_batch(wave);
        },
        [&pool] { return pool.idle(); });
    check_campaign(out, "lock-free engine");
    if (r == 0 || s.mean_ns < best.mean_ns) best = std::move(s);
  }
  return best;
}

// --------------------------------------------------------------------------
// Part B: pattern fan-out latency (reported)
// --------------------------------------------------------------------------

/// Reusable per-shard ballot set: names and indices are fixed, only the
/// Result payload is rewritten per request. Keeps the common (non-engine)
/// cost of a request low so the engines' bookkeeping difference is what
/// the gate actually measures. Identical for both engines.
struct RequestScratch {
  std::vector<core::Ballot<int>> ballots;
  RequestScratch() {
    ballots.reserve(kVariants);
    for (std::size_t v = 0; v < kVariants; ++v) {
      ballots.push_back(core::Ballot<int>{v, "v", 0});
    }
  }
};

/// One request on the PR-4 engine: per-task post of the fan-out, barrier,
/// word-wise majority vote — the PR-4 ParallelEvaluation shape.
int serve_request_mutex(MutexPool& pool, int request,
                        const core::Voter<int>& voter, RequestScratch& rs) {
  std::vector<MutexPool::Task> tasks;
  tasks.reserve(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    tasks.emplace_back([&rs, v, request] {
      rs.ballots[v].result = variant_body(request, int(v));
    });
  }
  pool.run_all(std::move(tasks));
  auto verdict = voter(rs.ballots);
  return verdict.has_value() ? verdict.value() : -1;
}

/// One request on the lock-free engine: the same fan-out through the
/// reusable BatchRunner (one submission epoch), same barrier, same voter.
int serve_request_lockfree(util::BatchRunner& batch, int request,
                           const core::Voter<int>& voter, RequestScratch& rs) {
  for (std::size_t v = 0; v < kVariants; ++v) {
    batch.add([&rs, v, request] {
      rs.ballots[v].result = variant_body(request, int(v));
    });
  }
  batch.run_and_wait();
  auto verdict = voter(rs.ballots);
  return verdict.has_value() ? verdict.value() : -1;
}

/// Sharded serving loop: one shard per worker, requests split evenly,
/// each shard timing its own requests. `serve` is the per-request hook.
template <typename SubmitShards, typename Serve>
Series run_pattern_shards(std::size_t shards, SubmitShards submit_shards,
                    Serve serve) {
  std::vector<std::vector<double>> lat(shards);
  std::vector<util::UniqueFunction<void()>> shard_tasks;
  shard_tasks.reserve(shards);
  const std::size_t chunk = kRequests / shards;
  const std::size_t extra = kRequests % shards;
  std::size_t begin = 0;
  std::int64_t checksum = 0;
  std::mutex checksum_m;
  for (std::size_t w = 0; w < shards; ++w) {
    const std::size_t end = begin + chunk + (w < extra ? 1 : 0);
    lat[w].reserve((end - begin) / 16 + 1);
    shard_tasks.emplace_back([w, begin, end, &lat, &serve, &checksum,
                              &checksum_m] {
      std::int64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) {
        // Time every 16th request: percentiles stay exact over the sampled
        // set while the clock calls stop inflating the common path (the
        // mean comes from the wall clock, not these samples).
        const bool timed = (i & 0xF) == 0;
        const std::uint64_t t0 = timed ? obs::now_ns() : 0;
        local += serve(w, int(i));
        if (timed) lat[w].push_back(double(obs::now_ns() - t0));
      }
      std::lock_guard lock(checksum_m);
      checksum += local;
    });
    begin = end;
  }
  const std::uint64_t t0 = obs::now_ns();
  submit_shards(std::move(shard_tasks));
  const std::uint64_t wall = obs::now_ns() - t0;
  if (checksum == 0x7FFFFFFF) std::printf(" ");  // keep the work observable
  Series s;
  for (auto& v : lat) {
    s.latency_ns.insert(s.latency_ns.end(), v.begin(), v.end());
  }
  s.mean_ns = double(wall) / double(kRequests);
  return s;
}

Series bench_mutex_patterns(std::size_t threads) {
  Series best;
  for (int r = 0; r < kRounds; ++r) {
    MutexPool pool{threads};
    const auto voter = core::majority_voter<int>();
    Series s = run_pattern_shards(
        threads,
        [&pool](std::vector<util::UniqueFunction<void()>> shard_tasks) {
          std::vector<MutexPool::Task> tasks;
          for (auto& t : shard_tasks) tasks.emplace_back(std::move(t));
          pool.run_all(std::move(tasks));
        },
        [&pool, &voter](std::size_t, int request) {
          thread_local RequestScratch rs;
          return serve_request_mutex(pool, request, voter, rs);
        });
    if (r == 0 || s.mean_ns < best.mean_ns) best = std::move(s);
  }
  return best;
}

Series bench_lockfree_patterns(std::size_t threads) {
  Series best;
  for (int r = 0; r < kRounds; ++r) {
    util::ThreadPool pool{threads};
    const auto voter = core::majority_voter<int>();
    Series s = run_pattern_shards(
        threads,
        [&pool](std::vector<util::UniqueFunction<void()>> shard_tasks) {
          pool.run_all(std::move(shard_tasks),
                       util::ThreadPool::ExceptionPolicy::forward);
        },
        [&pool, &voter](std::size_t, int request) {
          // One BatchRunner per shard thread, bound to the bench pool:
          // steady-state fan-out reuses its buffer, like the patterns do.
          thread_local util::BatchRunner batch{&pool};
          thread_local RequestScratch rs;
          return serve_request_lockfree(batch, request, voter, rs);
        });
    if (r == 0 || s.mean_ns < best.mean_ns) best = std::move(s);
  }
  return best;
}

/// Raw steal latency under contention: an owner feeding its deque, three
/// thieves timing each successful steal() end to end.
Series bench_steal_latency() {
  util::ChaseLevDeque<std::uintptr_t> deque;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<double>> samples(kThieves);
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (std::size_t t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      auto& mine = samples[t];
      mine.reserve(kStealItems / kThieves);
      while (!done.load(std::memory_order_acquire)) {
        std::uintptr_t item = 0;
        const std::uint64_t t0 = obs::now_ns();
        if (deque.steal(item)) {
          mine.push_back(double(obs::now_ns() - t0));
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Owner: feed in bursts, popping a share itself like a real worker.
  std::size_t produced = 0;
  std::uint64_t popped = 0;
  while (produced < kStealItems) {
    for (int i = 0; i < 64 && produced < kStealItems; ++i) {
      deque.push(static_cast<std::uintptr_t>(++produced));
    }
    std::uintptr_t item = 0;
    for (int i = 0; i < 16; ++i) {
      if (deque.pop(item)) ++popped;
    }
  }
  while (consumed.load(std::memory_order_acquire) + popped < kStealItems) {
    std::uintptr_t item = 0;
    if (deque.pop(item)) ++popped;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  Series s;
  double total = 0.0;
  for (auto& v : samples) {
    for (double d : v) total += d;
    s.latency_ns.insert(s.latency_ns.end(), v.begin(), v.end());
  }
  s.mean_ns = s.latency_ns.empty() ? 0.0 : total / double(s.latency_ns.size());
  return s;
}

// --------------------------------------------------------------------------
// Part D: contended external submission (reported)
// --------------------------------------------------------------------------

/// kSubmitters external threads hammer post() concurrently into the pool's
/// injector. Throughput comes from the wall clock over submit+drain; the
/// latency distribution from sampling every 32nd post() call inside the
/// submitters.
Series bench_contended_submission(std::size_t threads) {
  Series best;
  for (int r = 0; r < kRounds; ++r) {
    util::ThreadPool pool{threads};
    std::atomic<std::size_t> executed{0};
    std::atomic<bool> go{false};
    std::vector<std::vector<double>> samples(kSubmitters);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        auto& mine = samples[t];
        mine.reserve(kSubmitTasks / 32 + 1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::size_t i = 0; i < kSubmitTasks; ++i) {
          const bool sampled = i % 32 == 0;
          const std::uint64_t p0 = sampled ? obs::now_ns() : 0;
          pool.post(util::ThreadPool::Task{[&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          }});
          if (sampled) mine.push_back(double(obs::now_ns() - p0));
        }
      });
    }
    const std::uint64_t t0 = obs::now_ns();
    go.store(true, std::memory_order_release);
    for (auto& t : submitters) t.join();
    pool.wait_idle();
    const std::uint64_t wall = obs::now_ns() - t0;
    if (executed.load() != kSubmitters * kSubmitTasks) {
      std::fprintf(stderr,
                   "exp_engine_throughput: contended submission lost tasks\n");
      std::exit(2);
    }
    Series s;
    s.mean_ns = double(wall) / double(kSubmitters * kSubmitTasks);
    for (auto& v : samples) {
      s.latency_ns.insert(s.latency_ns.end(), v.begin(), v.end());
    }
    if (best.mean_ns == 0.0 || s.mean_ns < best.mean_ns) best = std::move(s);
  }
  return best;
}

// --------------------------------------------------------------------------
// Part E: steal distribution (reported)
// --------------------------------------------------------------------------

/// One external submitter's whole backlog chains into the injector; the
/// workers must spread it across themselves through injector drains and
/// steal sweeps. Measures how fast a lopsided backlog is redistributed,
/// wave by wave.
Series bench_steal_distribution(std::size_t threads) {
  Series best;
  for (int r = 0; r < kRounds; ++r) {
    util::ThreadPool pool{threads};
    std::atomic<std::size_t> executed{0};
    Series s;
    s.latency_ns.reserve(kFanoutTasks / kWave + 1);
    const std::uint64_t t0 = obs::now_ns();
    for (std::size_t base = 0; base < kFanoutTasks; base += kWave) {
      const std::size_t end = std::min(base + kWave, kFanoutTasks);
      const std::uint64_t w0 = obs::now_ns();
      std::vector<util::ThreadPool::Task> batch;
      batch.reserve(end - base);
      for (std::size_t i = base; i < end; ++i) {
        batch.emplace_back([&executed, i] {
          executed.fetch_add(
              std::size_t(1) + std::size_t(campaign_body(int(i)) & 0),
              std::memory_order_relaxed);
        });
      }
      pool.submit_batch(batch);
      while (!pool.idle()) std::this_thread::yield();
      s.latency_ns.push_back(double(obs::now_ns() - w0) / double(end - base));
    }
    s.mean_ns = double(obs::now_ns() - t0) / double(kFanoutTasks);
    if (executed.load() != kFanoutTasks) {
      std::fprintf(stderr, "exp_engine_throughput: fan-out lost tasks\n");
      std::exit(2);
    }
    if (best.mean_ns == 0.0 || s.mean_ns < best.mean_ns) best = std::move(s);
  }
  return best;
}

// --------------------------------------------------------------------------
// Part F: metric shard throughput (reported)
// --------------------------------------------------------------------------

/// All threads hammer one obs::Counter and one obs::Histogram — the single
/// hottest metric pattern in the engine hot path. The sharding must never
/// lose an increment: totals are checked exactly after every round.
Series bench_metric_shards(std::size_t threads) {
  Series best;
  for (int r = 0; r < kRounds; ++r) {
    obs::Counter counter;
    obs::Histogram histogram;
    std::atomic<bool> go{false};
    std::vector<double> per_thread_ns(threads, 0.0);
    std::vector<std::thread> hammers;
    hammers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      hammers.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const std::uint64_t h0 = obs::now_ns();
        for (std::size_t i = 0; i < kMetricOps; ++i) {
          counter.add(1);
          histogram.record(i & 0xFFF);
        }
        per_thread_ns[t] = double(obs::now_ns() - h0) / double(kMetricOps);
      });
    }
    const std::uint64_t t0 = obs::now_ns();
    go.store(true, std::memory_order_release);
    for (auto& t : hammers) t.join();
    const std::uint64_t wall = obs::now_ns() - t0;
    if (counter.total() != threads * kMetricOps ||
        histogram.count() != threads * kMetricOps) {
      std::fprintf(stderr, "exp_engine_throughput: metric shards lost ops\n");
      std::exit(2);
    }
    Series s;
    s.latency_ns = per_thread_ns;  // per-thread mean ns per add+record pair
    s.mean_ns = double(wall) / double(threads * kMetricOps);
    if (best.mean_ns == 0.0 || s.mean_ns < best.mean_ns) best = std::move(s);
  }
  return best;
}

void write_json(const std::vector<std::pair<std::string, Series>>& all,
                std::size_t threads) {
  const char* path = "BENCH_exp_engine_throughput.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_engine_throughput: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"binary\": \"exp_engine_throughput\",\n");
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& [name, s] : all) {
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"ops_per_sec\": %.3f, "
                 "\"latency_ns_mean\": %.1f, \"latency_ns_p50\": %.1f, "
                 "\"latency_ns_p95\": %.1f, \"latency_ns_p99\": %.1f, "
                 "\"repetitions\": %zu, \"threads\": %zu}",
                 first ? "" : ",\n", name.c_str(), s.ops_per_sec(), s.mean_ns,
                 s.percentile(50.0), s.percentile(95.0), s.percentile(99.0),
                 s.latency_ns.size(), threads);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 8);

  std::printf("E20. Lock-free engine vs the PR-4 mutex engine\n\n");

  std::printf("Part A: fine-grained campaign, %zu tasks (~10 ns each) in "
              "waves of %zu, external driver, best of %d\n",
              kCampaignTasks, kWave, kRounds);
  const Series mutex_campaign = bench_mutex_campaign(threads);
  const Series lockfree_campaign = bench_lockfree_campaign(threads);
  const double speedup =
      lockfree_campaign.mean_ns > 0.0
          ? mutex_campaign.mean_ns / lockfree_campaign.mean_ns
          : 0.0;
  std::printf("  %-28s %10.1f ns/task %12.0f task/s  p99/wave %6.0f ns\n",
              "mutex engine (PR-4)", mutex_campaign.mean_ns,
              mutex_campaign.ops_per_sec(), mutex_campaign.percentile(99.0));
  std::printf("  %-28s %10.1f ns/task %12.0f task/s  p99/wave %6.0f ns\n",
              "lock-free engine", lockfree_campaign.mean_ns,
              lockfree_campaign.ops_per_sec(),
              lockfree_campaign.percentile(99.0));
  const bool pass = speedup >= kSpeedupGate;
  std::printf("  speedup %.2fx (gate >= %.1fx) -> %s\n\n", speedup,
              kSpeedupGate, pass ? "PASS" : "FAIL");

  std::printf("Part B: %zu-shard pattern serving, %zu requests x %zu "
              "variants, majority vote, best of %d (reported, no gate)\n",
              threads, kRequests, kVariants, kRounds);
  const Series mutex_patterns = bench_mutex_patterns(threads);
  const Series lockfree_patterns = bench_lockfree_patterns(threads);
  const double pattern_speedup =
      lockfree_patterns.mean_ns > 0.0
          ? mutex_patterns.mean_ns / lockfree_patterns.mean_ns
          : 0.0;
  std::printf("  %-28s %10.1f ns/req  %12.0f req/s   p99 %8.0f ns\n",
              "mutex engine (PR-4)", mutex_patterns.mean_ns,
              mutex_patterns.ops_per_sec(), mutex_patterns.percentile(99.0));
  std::printf("  %-28s %10.1f ns/req  %12.0f req/s   p99 %8.0f ns\n",
              "lock-free engine", lockfree_patterns.mean_ns,
              lockfree_patterns.ops_per_sec(),
              lockfree_patterns.percentile(99.0));
  std::printf("  speedup %.2fx\n\n", pattern_speedup);

  const Series steal = bench_steal_latency();
  std::printf("Part C: Chase-Lev steal latency, 1 owner vs %zu thieves, "
              "%zu items\n",
              kThieves, kStealItems);
  std::printf("  %zu successful steals: p50 %.0f ns  p95 %.0f ns  "
              "p99 %.0f ns\n\n",
              steal.latency_ns.size(), steal.percentile(50.0),
              steal.percentile(95.0), steal.percentile(99.0));

  std::printf("Part D: contended external submission, %zu submitters x %zu "
              "post()s on the one injector, best of %d (reported, no gate)\n",
              kSubmitters, kSubmitTasks, kRounds);
  const Series submit_single = bench_contended_submission(threads);
  std::printf("  %10.1f ns/task %12.0f task/s  p99 post %6.0f ns\n\n",
              submit_single.mean_ns, submit_single.ops_per_sec(),
              submit_single.percentile(99.0));

  const Series fanout = bench_steal_distribution(threads);
  std::printf("Part E: steal distribution, 1 submitter's backlog fanned out "
              "to %zu workers, %zu tasks (reported, no gate)\n",
              threads, kFanoutTasks);
  std::printf("  %10.1f ns/task %12.0f task/s  p99/wave %6.0f ns\n\n",
              fanout.mean_ns, fanout.ops_per_sec(), fanout.percentile(99.0));

  const Series metric = bench_metric_shards(threads);
  std::printf("Part F: metric shard throughput, %zu threads x %zu "
              "Counter::add + Histogram::record pairs (reported, no gate)\n",
              threads, kMetricOps);
  std::printf("  %10.1f ns/pair %12.0f pair/s  worst thread %6.0f ns/pair\n\n",
              metric.mean_ns, metric.ops_per_sec(), metric.percentile(99.0));

  write_json({{"engine_mutex_campaign", mutex_campaign},
              {"engine_lockfree_campaign", lockfree_campaign},
              {"pattern_mutex_serve", mutex_patterns},
              {"pattern_lockfree_serve", lockfree_patterns},
              {"steal_latency", steal},
              {"submit_single_lane", submit_single},
              {"steal_distribution", fanout},
              {"obs_metric_shards", metric}},
             threads);

  return pass ? 0 : 1;
}
