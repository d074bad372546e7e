#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace redundancy::util {

namespace {

// Which pool (if any) owns the current thread, and that worker's deque
// index. Lets submit-from-worker go to the submitter's own deque, keeping
// recursive fan-out cache-local and contention-free.
thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;
// Tasks this thread has put on any pool's queues, and those of them no
// run_all joins (see ThreadPool::submitted_by_this_thread and
// posted_by_this_thread).
thread_local std::uint64_t tls_submitted = 0;
thread_local std::uint64_t tls_posted = 0;
// Where this thread's next steal sweep starts. It advances by one per
// sweep; a worker seeds it with its own index + 1, so starved workers
// start their sweeps at different victims instead of stampeding one deque.
thread_local std::size_t tls_steal_start = 0;

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
// happens through the deque slots' release/acquire or the injector mutex.
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

// The join state of one run_all. Its tasks are claimed by index, so any
// thread may run the next unclaimed one: a thread running one of the
// batch's wrappers or, outside the pool, the waiter itself. A waiter that
// ran its own tasks leaves wrappers with nothing to claim that may run
// after the call, so the wrappers and the waiter share the state, and the
// last of them frees it.
struct JoinState {
  JoinState(std::span<ThreadPool::Task> t, std::size_t holders)
      : tasks(t), remaining(t.size()), holders(holders) {}

  // Claim and run the next unclaimed task; false once every task is taken.
  bool run_next() {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= tasks.size()) return false;
    std::exception_ptr error;
    try {
      tasks[i]();
    } catch (...) {
      error = std::current_exception();
    }
    if (error) {
      std::lock_guard lock(m);
      if (!first_error) first_error = error;
    }
    // acq_rel: completions happen-before the last one's notify, and thus
    // before the waiter returns. Only the last takes the mutex, so a batch
    // of N costs one lock round-trip instead of N.
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(m);
      done = true;
      cv.notify_all();
    }
    return true;
  }

  void release() {
    if (holders.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  const std::span<ThreadPool::Task> tasks;
  std::atomic<std::size_t> next{0};  // next unclaimed task
  std::atomic<std::size_t> remaining;
  std::atomic<std::size_t> holders;  // the waiter and every wrapper
  std::mutex m;
  std::condition_variable cv;
  bool done = false;               // guarded by m
  std::exception_ptr first_error;  // guarded by m
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(2, std::thread::hardware_concurrency());
  }
  nworkers_ = threads;
  workers_state_.reset(new Worker[threads]);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_seq_cst);
  unpark_all();
  for (auto& w : workers_) w.join();
  // Workers only exit once pending_ == 0, so the injector is empty here.
}

bool ThreadPool::on_worker_thread() const noexcept { return tls_pool == this; }

std::uint64_t ThreadPool::submitted_by_this_thread() noexcept {
  return tls_submitted;
}

std::uint64_t ThreadPool::posted_by_this_thread() noexcept {
  return tls_posted;
}

void ThreadPool::post(Task task) {
  TaskNode* node = alloc_node(std::move(task));
  ++tls_posted;
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
  tls_posted += tasks.size();
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
    // External submission: the whole chain is appended to the injector
    // under one lock, so a batch stays one contiguous FIFO run. It still
    // pays exactly one pending epoch (above) and one wake-up (below)
    // regardless of size.
    std::lock_guard lock(injector_.m);
    if (injector_.tail != nullptr) {
      injector_.tail->next = head;
    } else {
      injector_.head = head;
    }
    injector_.tail = tail;
    injector_.size.fetch_add(n, std::memory_order_release);
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

ThreadPool::TaskNode* ThreadPool::drain_injector(std::size_t self) {
  // Amortized drain: claim one node to run and (for a worker) move a fair
  // share of the backlog into the worker's own deque, where it becomes
  // stealable. Moved nodes stay "pending" — still queued, just elsewhere.
  InjectorLane& in = injector_;
  TaskNode* node = nullptr;
  TaskNode* extras = nullptr;
  {
    std::lock_guard lock(in.m);
    node = in.head;
    if (node == nullptr) return nullptr;
    in.head = node->next;
    if (in.head == nullptr) in.tail = nullptr;
    node->next = nullptr;
    std::size_t taken = 1;
    if (self != kNoWorker && in.head != nullptr) {
      std::size_t share = (in.size.load(std::memory_order_relaxed) - 1) /
                          (nworkers_ + 1);
      share = std::min<std::size_t>(share, 32);
      if (share > 0) {
        extras = in.head;
        TaskNode* last = extras;
        std::size_t moved = 1;
        while (moved < share && last->next != nullptr) {
          last = last->next;
          ++moved;
        }
        in.head = last->next;
        if (in.head == nullptr) in.tail = nullptr;
        last->next = nullptr;
        taken += moved;
      }
    }
    in.size.fetch_sub(taken, std::memory_order_release);
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

ThreadPool::TaskNode* ThreadPool::steal_sweep(std::size_t self) {
  const std::size_t n = nworkers_;
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  const std::size_t start = tls_steal_start++;
  for (std::size_t off = 0; off < n; ++off) {
    const std::size_t victim = (start + off) % n;
    if (victim == self) continue;
    TaskNode* node = nullptr;
    if (workers_state_[victim].deque.steal(node)) {
      active_.fetch_add(1, std::memory_order_release);
      pending_.fetch_sub(1, std::memory_order_release);
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
  TaskNode* node = nullptr;
  if (self != kNoWorker && workers_state_[self].deque.pop(node)) {
    active_.fetch_add(1, std::memory_order_release);
    pending_.fetch_sub(1, std::memory_order_release);
    return node;
  }
  // The probe load touches one isolated line and takes no lock when the
  // injector is empty.
  if (injector_.size.load(std::memory_order_acquire) > 0) {
    if (TaskNode* got = drain_injector(self)) return got;
  }
  return steal_sweep(self);
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
  TaskNode* node = acquire_task(on_worker_thread() ? tls_index : kNoWorker);
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
  tls_steal_start = self + 1;
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
  auto* st = new JoinState(tasks, tasks.size() + 1);
  // The whole batch goes in with one pending epoch and one wake-up; each
  // wrapper captures one pointer, always inline in the Task buffer.
  TaskNode* head = nullptr;
  TaskNode* tail = nullptr;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    TaskNode* node = alloc_node(Task{[st] {
      st->run_next();
      st->release();
    }});
    if (head == nullptr) {
      head = tail = node;
    } else {
      tail->next = node;
      tail = node;
    }
  }
  enqueue_chain(head, tail, tasks.size());
  std::unique_lock lock(st->m, std::defer_lock);
  if (on_worker_thread()) {
    // Helper fast path: drain work without touching the join mutex — the
    // countdown is the only thing the loop reads. Only when the queues run
    // dry with tasks still in flight (another worker claimed them) does
    // the waiter fall through to the lock + cv slow path.
    while (st->remaining.load(std::memory_order_acquire) != 0) {
      if (!try_run_one()) break;
    }
    lock.lock();
    help_until(lock, st->cv, [&] { return st->done; });
  } else {
    // Once a poll passes with tasks unclaimed — the workers are busy, or
    // queued behind a lock this caller holds (a gateway route run on its
    // reactor) — the caller runs them itself, so its wait always ends.
    lock.lock();
    while (!st->done) {
      if (st->cv.wait_for(lock, std::chrono::milliseconds(1)) ==
              std::cv_status::timeout &&
          !st->done) {
        lock.unlock();
        while (st->run_next()) {
        }
        lock.lock();
      }
    }
  }
  const std::exception_ptr error = st->first_error;
  lock.unlock();
  st->release();
  if (policy == ExceptionPolicy::forward && error) {
    std::rethrow_exception(error);
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
