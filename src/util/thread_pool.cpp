#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/topology.hpp"

namespace redundancy::util {

namespace {

// Which pool (if any) owns the current thread, and that worker's deque
// index. Lets submit-from-worker go to the submitter's own deque, keeping
// recursive fan-out cache-local and contention-free.
thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;
// Tasks this thread has put on any pool's queues (see
// ThreadPool::submitted_by_this_thread).
thread_local std::uint64_t tls_submitted = 0;

// Sticky per-thread submitter cookie: external submitters are spread over
// the injector lanes round-robin at first submission and then stay on
// their lane, so a steady submitter keeps hitting lines it already owns.
std::size_t submitter_cookie() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

// SplitMix64 step — used for the per-worker steal-order shuffles (seeded
// deterministically by worker index, so orders are stable run to run) and
// for the external sweep's rotating start.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Engine metrics, resolved once and leaked with the registry so workers
// draining during static destruction stay safe. Updated only when
// obs::enabled() — the disabled hot path pays one relaxed load.
struct PoolMetrics {
  obs::Counter& posted = obs::counter("pool.tasks_posted");
  obs::Counter& executed = obs::counter("pool.tasks_executed");
  obs::Counter& stolen = obs::counter("pool.tasks_stolen");
  obs::Counter& helped = obs::counter("pool.tasks_helped");
  obs::Histogram& queue_depth = obs::histogram("pool.queue_depth_at_post");
  obs::Histogram& task_ns = obs::histogram("pool.task_exec_ns");
  obs::Histogram& steal_ns = obs::histogram("pool.steal_ns");

  static PoolMetrics& get() {
    static PoolMetrics* metrics = new PoolMetrics();
    return *metrics;
  }
};

// Recycled TaskNode storage. Nodes migrate between threads — allocated by
// the submitter, freed by the executor — so per-thread caches drift
// one-sided: a pure submitter's cache drains while the workers' caches
// overflow, and a naive bounded cache degenerates to one malloc + one
// free per task. The global transfer list fixes that: overflow is spliced
// to it in chains of kNodeTransfer under one lock, and an empty cache
// refills from it the same way, so the amortized cross-thread cost is two
// lock round-trips per kNodeTransfer tasks. A cache is only ever touched
// by its owning thread; cross-thread handoff of a node's *contents*
// happens through the deque slots' release/acquire or a lane mutex.
constexpr std::size_t kNodeCacheMax = 256;   // per-thread hoard bound
constexpr std::size_t kNodeTransfer = 128;   // chain length per splice

struct GlobalNodeList {
  std::mutex m;
  pool_detail::TaskNode* head = nullptr;  // chains linked through ->next
  std::size_t size = 0;

  // Leaked singleton, same idiom as PoolMetrics: worker threads of
  // static-storage pools free nodes during process teardown.
  static GlobalNodeList& get() {
    static GlobalNodeList* list = new GlobalNodeList();
    return *list;
  }
};

struct NodeCache {
  std::vector<pool_detail::TaskNode*> free;
  ~NodeCache() {
    for (pool_detail::TaskNode* n : free) delete n;
  }
};

NodeCache& node_cache() {
  thread_local NodeCache cache;
  return cache;
}

pool_detail::TaskNode* alloc_node(UniqueFunction<void()>&& task) {
  NodeCache& cache = node_cache();
  if (cache.free.empty()) {
    // Refill in bulk from the global list before falling back to new.
    GlobalNodeList& global = GlobalNodeList::get();
    std::lock_guard lock(global.m);
    while (global.head != nullptr && cache.free.size() < kNodeTransfer) {
      pool_detail::TaskNode* n = global.head;
      global.head = n->next;
      --global.size;
      cache.free.push_back(n);
    }
  }
  pool_detail::TaskNode* n;
  if (!cache.free.empty()) {
    n = cache.free.back();
    cache.free.pop_back();
  } else {
    n = new pool_detail::TaskNode();
  }
  n->task = std::move(task);
  n->next = nullptr;
  n->helpable = true;  // recycled nodes must not inherit the previous flag
  return n;
}

void free_node(pool_detail::TaskNode* n) {
  n->task = UniqueFunction<void()>{};  // release the payload eagerly
  n->next = nullptr;
  NodeCache& cache = node_cache();
  cache.free.push_back(n);
  if (cache.free.size() > kNodeCacheMax) {
    // Splice half the hoard to the global list as one chain, built before
    // the lock so the critical section is two pointer writes.
    pool_detail::TaskNode* head = nullptr;
    pool_detail::TaskNode* tail = nullptr;
    for (std::size_t i = 0; i < kNodeTransfer; ++i) {
      pool_detail::TaskNode* t = cache.free.back();
      cache.free.pop_back();
      t->next = head;
      head = t;
      if (tail == nullptr) tail = t;
    }
    GlobalNodeList& global = GlobalNodeList::get();
    std::lock_guard lock(global.m);
    tail->next = global.head;
    global.head = head;
    global.size += kNodeTransfer;
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, std::size_t injector_lanes) {
  if (threads == 0) {
    threads = std::max<std::size_t>(2, std::thread::hardware_concurrency());
  }
  nworkers_ = threads;
  workers_state_.reset(new Worker[threads]);

  // Lane count: a power of two near the worker count (at least 2 so two
  // concurrent submitters can always avoid each other), capped at 64 —
  // idle workers scan every lane's emptiness probe, so lanes must stay
  // bounded. An explicit injector_lanes (e.g. 1 in the benchmark's
  // single-injector baseline) wins.
  std::size_t lanes = injector_lanes != 0
                          ? injector_lanes
                          : std::max<std::size_t>(2, threads);
  lanes = std::min<std::size_t>(round_up_pow2(lanes), 64);
  lanes_.reset(new InjectorLane[lanes]);
  lane_mask_ = lanes - 1;

  build_steal_orders();

  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_seq_cst);
  unpark_all();
  for (auto& w : workers_) w.join();
  // Workers only exit once pending_ == 0, so every lane is empty here.
}

void ThreadPool::build_steal_orders() {
  // Near-first victim order per worker. Worker indices are grouped into
  // clusters of `cluster` (the probed LLC-sharing width — an index-based
  // locality proxy, since workers are not pinned): a worker sweeps its own
  // cluster first, then the rest. Each distance class is shuffled with a
  // per-worker deterministic rng so two starved workers start their sweeps
  // at different victims (randomized tie-breaking, no thundering herd).
  const std::size_t n = nworkers_;
  steal_orders_.assign(n > 1 ? n * (n - 1) : 0, 0);
  if (n <= 1) return;
  const std::size_t cluster =
      std::clamp<std::size_t>(topology().cluster_size, 1, n);
  for (std::size_t self = 0; self < n; ++self) {
    std::uint32_t* order = steal_orders_.data() + self * (n - 1);
    std::size_t near_count = 0;
    std::size_t far_at = 0;
    const std::size_t my_cluster = self / cluster;
    // Partition: same-cluster victims first, preserving index order.
    for (std::size_t v = 0; v < n; ++v) {
      if (v == self) continue;
      if (v / cluster == my_cluster) {
        order[near_count++] = static_cast<std::uint32_t>(v);
      }
    }
    far_at = near_count;
    for (std::size_t v = 0; v < n; ++v) {
      if (v == self || v / cluster == my_cluster) continue;
      order[far_at++] = static_cast<std::uint32_t>(v);
    }
    // Fisher–Yates each class with a worker-seeded rng.
    std::uint64_t rng = 0x9E3779B97F4A7C15ull ^ (self * 0x100000001B3ull);
    auto shuffle = [&rng, order](std::size_t begin, std::size_t end) {
      for (std::size_t i = end; i > begin + 1; --i) {
        const std::size_t j = begin + splitmix64(rng) % (i - begin);
        std::swap(order[i - 1], order[j]);
      }
    };
    shuffle(0, near_count);
    shuffle(near_count, n - 1);
  }
}

std::vector<std::size_t> ThreadPool::steal_order(std::size_t self) const {
  std::vector<std::size_t> out;
  if (nworkers_ <= 1 || self >= nworkers_) return out;
  out.reserve(nworkers_ - 1);
  const std::uint32_t* order = steal_orders_.data() + self * (nworkers_ - 1);
  for (std::size_t i = 0; i + 1 < nworkers_; ++i) out.push_back(order[i]);
  return out;
}

std::size_t ThreadPool::home_lane() const noexcept {
  return submitter_cookie() & lane_mask_;
}

bool ThreadPool::on_worker_thread() const noexcept { return tls_pool == this; }

std::uint64_t ThreadPool::submitted_by_this_thread() noexcept {
  return tls_submitted;
}

void ThreadPool::post(Task task) {
  TaskNode* node = alloc_node(std::move(task));
  enqueue_chain(node, node, 1);
}

void ThreadPool::submit_batch(std::span<Task> tasks, bool helpable) {
  if (tasks.empty()) return;
  TaskNode* head = nullptr;
  TaskNode* tail = nullptr;
  for (Task& t : tasks) {
    TaskNode* node = alloc_node(std::move(t));
    node->helpable = helpable;
    if (head == nullptr) {
      head = tail = node;
    } else {
      tail->next = node;
      tail = node;
    }
  }
  enqueue_chain(head, tail, tasks.size());
}

void ThreadPool::enqueue_chain(TaskNode* head, TaskNode* tail,
                               std::size_t n) {
  // The counter rises before any node becomes claimable, so pending_ never
  // underflows; seq_cst makes the increment globally ordered against a
  // parking worker's recheck (Dekker handshake — see worker_loop).
  const std::size_t depth =
      pending_.fetch_add(n, std::memory_order_seq_cst) + n;
  tls_submitted += n;
  if (tls_pool == this) {
    // Worker fan-out: straight into our own deque, where thieves (woken by
    // the chain below) redistribute it. No lock at all on this path.
    Worker& me = workers_state_[tls_index];
    for (TaskNode* p = head; p != nullptr;) {
      TaskNode* next = p->next;
      p->next = nullptr;
      me.deque.push(p);
      p = next;
    }
  } else {
    // External submission: the whole chain lands in the submitter's home
    // lane under that lane's lock — submitters hashed to different lanes
    // never contend, and a batch stays one contiguous FIFO run within its
    // lane. The batch still pays exactly one pending epoch (above) and one
    // wake-up (below) regardless of size.
    InjectorLane& lane = lanes_[submitter_cookie() & lane_mask_];
    std::lock_guard lock(lane.m);
    if (lane.tail != nullptr) {
      lane.tail->next = head;
    } else {
      lane.head = head;
    }
    lane.tail = tail;
    lane.size.fetch_add(n, std::memory_order_release);
  }
  if (obs::enabled()) {
    PoolMetrics& m = PoolMetrics::get();
    m.posted.add(n);
    m.queue_depth.record(depth);
  }
  unpark_one();
}

void ThreadPool::unpark_one() {
  // seq_cst pairs with the parking worker's advertisement + pending
  // recheck: either the worker sees our pending_ add and aborts the park,
  // or its num_parked_ increment is ordered before this load and we find
  // its parked flag in the scan below.
  if (num_parked_.load(std::memory_order_seq_cst) == 0) return;
  for (std::size_t i = 0; i < nworkers_; ++i) {
    Worker& w = workers_state_[i];
    if (w.parked.load(std::memory_order_seq_cst)) {
      {
        // The lock orders the token against the condvar wait predicate; a
        // worker between "parked = true" and the wait still sees it.
        std::lock_guard lock(w.m);
        w.notified.store(true, std::memory_order_relaxed);
      }
      w.cv.notify_one();
      return;
    }
  }
}

void ThreadPool::unpark_all() {
  for (std::size_t i = 0; i < nworkers_; ++i) {
    Worker& w = workers_state_[i];
    {
      std::lock_guard lock(w.m);
      w.notified.store(true, std::memory_order_relaxed);
    }
    w.cv.notify_all();
  }
}

ThreadPool::TaskNode* ThreadPool::drain_lane(InjectorLane& lane,
                                             std::size_t self) {
  // Amortized lane drain: claim one node to run and (for a worker) move a
  // fair share of the lane's backlog into the worker's own deque, where it
  // becomes stealable. Moved nodes stay "pending" — still queued, just
  // elsewhere. The share is computed against this lane only: with L lanes
  // the backlog is already spread L ways, so per-lane shares keep the
  // per-drain critical section short.
  TaskNode* node = nullptr;
  TaskNode* extras = nullptr;
  {
    std::lock_guard lock(lane.m);
    node = lane.head;
    if (node == nullptr) return nullptr;
    lane.head = node->next;
    if (lane.head == nullptr) lane.tail = nullptr;
    node->next = nullptr;
    std::size_t taken = 1;
    if (self != kNoWorker && lane.head != nullptr) {
      std::size_t share = (lane.size.load(std::memory_order_relaxed) - 1) /
                          (nworkers_ + 1);
      share = std::min<std::size_t>(share, 32);
      if (share > 0) {
        extras = lane.head;
        TaskNode* last = extras;
        std::size_t moved = 1;
        while (moved < share && last->next != nullptr) {
          last = last->next;
          ++moved;
        }
        lane.head = last->next;
        if (lane.head == nullptr) lane.tail = nullptr;
        last->next = nullptr;
        taken += moved;
      }
    }
    lane.size.fetch_sub(taken, std::memory_order_release);
  }
  // active_ rises before pending_ falls, so wait_idle never observes
  // "nothing queued, nothing running" for an in-flight task.
  active_.fetch_add(1, std::memory_order_release);
  pending_.fetch_sub(1, std::memory_order_release);
  if (extras != nullptr) {
    Worker& me = workers_state_[self];
    for (TaskNode* p = extras; p != nullptr;) {
      TaskNode* next = p->next;
      p->next = nullptr;
      me.deque.push(p);
      p = next;
    }
  }
  return node;
}

ThreadPool::TaskNode* ThreadPool::try_steal(std::size_t victim) {
  TaskNode* node = nullptr;
  if (workers_state_[victim].deque.steal(node)) {
    active_.fetch_add(1, std::memory_order_release);
    pending_.fetch_sub(1, std::memory_order_release);
    return node;
  }
  return nullptr;
}

ThreadPool::TaskNode* ThreadPool::steal_sweep_worker(std::size_t self) {
  if (nworkers_ <= 1) return nullptr;
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  const std::uint32_t* order = steal_orders_.data() + self * (nworkers_ - 1);
  for (std::size_t i = 0; i + 1 < nworkers_; ++i) {
    if (TaskNode* node = try_steal(order[i])) {
      if (timed) {
        PoolMetrics& m = PoolMetrics::get();
        m.stolen.add();
        m.steal_ns.record(obs::now_ns() - t0);
      }
      return node;
    }
  }
  return nullptr;
}

ThreadPool::TaskNode* ThreadPool::steal_sweep_external() {
  const std::size_t n = nworkers_;
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  // External helpers have no topology home; a per-thread rotating start
  // keeps concurrent helpers off each other's victims.
  thread_local std::uint64_t rot = submitter_cookie();
  const std::size_t start = static_cast<std::size_t>(rot++) % n;
  for (std::size_t off = 0; off < n; ++off) {
    if (TaskNode* node = try_steal((start + off) % n)) {
      if (timed) {
        PoolMetrics& m = PoolMetrics::get();
        m.stolen.add();
        m.steal_ns.record(obs::now_ns() - t0);
      }
      return node;
    }
  }
  return nullptr;
}

ThreadPool::TaskNode* ThreadPool::acquire_task(std::size_t self) {
  Worker& me = workers_state_[self];
  TaskNode* node = nullptr;
  if (me.deque.pop(node)) {
    active_.fetch_add(1, std::memory_order_release);
    pending_.fetch_sub(1, std::memory_order_release);
    return node;
  }
  // Injector lanes, affine lane first: worker i and the submitters hashed
  // to lane (i & mask) meet on the same lane in steady state, so the
  // drained nodes' lines were last written nearby. The probe loads touch
  // one isolated line per lane and take no lock on empty lanes.
  const std::size_t nlanes = lane_mask_ + 1;
  for (std::size_t off = 0; off < nlanes; ++off) {
    InjectorLane& lane = lanes_[(self + off) & lane_mask_];
    if (lane.size.load(std::memory_order_acquire) > 0) {
      if (TaskNode* got = drain_lane(lane, self)) return got;
    }
  }
  return steal_sweep_worker(self);
}

ThreadPool::TaskNode* ThreadPool::acquire_task_external() {
  const std::size_t nlanes = lane_mask_ + 1;
  const std::size_t start = submitter_cookie();
  for (std::size_t off = 0; off < nlanes; ++off) {
    InjectorLane& lane = lanes_[(start + off) & lane_mask_];
    if (lane.size.load(std::memory_order_acquire) > 0) {
      if (TaskNode* got = drain_lane(lane, kNoWorker)) return got;
    }
  }
  return steal_sweep_external();
}

void ThreadPool::execute(TaskNode* node) {
  if (obs::enabled()) {
    PoolMetrics& m = PoolMetrics::get();
    const std::uint64_t t0 = obs::now_ns();
    node->task();
    m.task_ns.record(obs::now_ns() - t0);
    m.executed.add();
  } else {
    node->task();
  }
  active_.fetch_sub(1, std::memory_order_release);
  free_node(node);
}

bool ThreadPool::try_run_one() {
  TaskNode* node = on_worker_thread() ? acquire_task(tls_index)
                                      : acquire_task_external();
  if (node == nullptr) return false;
  if (!node->helpable) {
    // This frame may sit above a lock-holding wait (a pattern's help loop):
    // running a route job here could re-take that lock and self-deadlock.
    // Hand the node back and wake a dedicated worker for it. In practice
    // help still makes progress: a waiting worker's own hedge/ballot legs
    // land in its own deque and are claimed before the injector is
    // consulted, so only externally-injected jobs are declined.
    active_.fetch_sub(1, std::memory_order_release);
    node->next = nullptr;
    enqueue_chain(node, node, 1);
    return false;
  }
  if (obs::enabled()) PoolMetrics::get().helped.add();
  execute(node);
  return true;
}

void ThreadPool::wait_idle() {
  for (;;) {
    while (try_run_one()) {
    }
    if (pending_.load(std::memory_order_acquire) == 0 &&
        active_.load(std::memory_order_acquire) == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_pool = this;
  tls_index = self;
  Worker& me = workers_state_[self];
  for (;;) {
    TaskNode* node = acquire_task(self);
    if (node != nullptr) {
      // Wake chaining: if more work remains and someone is asleep, pass
      // the baton before executing — a batch of N wakes workers one by
      // one without a thundering herd.
      if (pending_.load(std::memory_order_acquire) > 0 &&
          num_parked_.load(std::memory_order_acquire) > 0) {
        unpark_one();
      }
      execute(node);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
    // Park. Dekker-style handshake with enqueue_chain: advertise the park
    // (parked flag + num_parked_), then recheck pending_ — all seq_cst. A
    // submitter either sees our advertisement in its wake scan or we see
    // its pending_ increment here and abort the park.
    me.parked.store(true, std::memory_order_seq_cst);
    num_parked_.fetch_add(1, std::memory_order_seq_cst);
    if (pending_.load(std::memory_order_seq_cst) > 0 ||
        stopping_.load(std::memory_order_seq_cst)) {
      me.parked.store(false, std::memory_order_relaxed);
      num_parked_.fetch_sub(1, std::memory_order_seq_cst);
      std::this_thread::yield();  // tasks are in flight; rescan shortly
      continue;
    }
    {
      std::unique_lock lock(me.m);
      // The timed wait is a safety net only: every wake normally arrives
      // through the notified token set under this mutex.
      me.cv.wait_for(lock, std::chrono::milliseconds(2), [&] {
        return me.notified.load(std::memory_order_relaxed) ||
               stopping_.load(std::memory_order_acquire);
      });
      me.notified.store(false, std::memory_order_relaxed);
    }
    me.parked.store(false, std::memory_order_relaxed);
    num_parked_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ThreadPool::run_all(std::span<Task> tasks, ExceptionPolicy policy) {
  if (tasks.empty()) return;
  struct State {
    std::atomic<std::size_t> remaining;
    std::mutex m;
    std::condition_variable cv;
    bool done = false;               // guarded by m
    std::exception_ptr first_error;  // guarded by m
  };
  // run_all is a barrier: this frame outlives every wrapper, so the join
  // state lives on the stack and wrappers borrow it (and the tasks) by raw
  // pointer — 16 bytes captured, always inline in the Task buffer. The
  // whole batch goes in with one pending epoch and one wake-up, and
  // completions count down on an atomic: only the LAST wrapper takes the
  // mutex (to flip `done` and notify), so a batch of N costs one lock
  // round-trip instead of N. The waiter reads `done` — never the atomic —
  // under the mutex, so it cannot pop this frame until the last wrapper
  // has released m, after which no wrapper touches st again.
  State st;
  st.remaining.store(tasks.size(), std::memory_order_relaxed);
  TaskNode* head = nullptr;
  TaskNode* tail = nullptr;
  for (Task& t : tasks) {
    TaskNode* node = alloc_node(Task{[st_ptr = &st, task = &t] {
      std::exception_ptr error;
      try {
        (*task)();
      } catch (...) {
        error = std::current_exception();
      }
      if (error) {
        std::lock_guard lock(st_ptr->m);
        if (!st_ptr->first_error) st_ptr->first_error = error;
      }
      // acq_rel: completions happen-before the last wrapper's notify, and
      // thus before the waiter returns.
      if (st_ptr->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(st_ptr->m);
        st_ptr->done = true;
        st_ptr->cv.notify_all();
      }
    }});
    if (head == nullptr) {
      head = tail = node;
    } else {
      tail->next = node;
      tail = node;
    }
  }
  enqueue_chain(head, tail, tasks.size());
  // Helper fast path: drain work without touching the join mutex — the
  // countdown is the only thing the loop reads. Only when the queues run
  // dry with wrappers still in flight (another worker claimed them) does
  // the waiter fall through to the lock + cv slow path.
  if (on_worker_thread()) {
    while (st.remaining.load(std::memory_order_acquire) != 0) {
      if (!try_run_one()) break;
    }
  }
  std::unique_lock lock(st.m);
  help_until(lock, st.cv, [&] { return st.done; });
  if (policy == ExceptionPolicy::forward && st.first_error) {
    std::rethrow_exception(st.first_error);
  }
}

std::size_t ThreadPool::shared_size_from_env() noexcept {
  const std::size_t fallback =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 8);
  const char* env = std::getenv("REDUNDANCY_THREADS");
  if (env == nullptr) return fallback;
  // Strict parse, value in [1, 1024]. Anything else is loudly rejected — a
  // silently mis-sized pool is exactly the kind of configuration fault this
  // library exists to catch elsewhere.
  const std::optional<std::uint64_t> value = parse_decimal(env, 1, 1024);
  if (!value) {
    std::fprintf(stderr,
                 "[redundancy] REDUNDANCY_THREADS='%s' is not a valid thread "
                 "count (expected an integer in 1..1024); using %zu threads\n",
                 env, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(*value);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool{shared_size_from_env()};
  return pool;
}

}  // namespace redundancy::util
