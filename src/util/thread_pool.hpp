// Lock-free work-stealing thread pool used by the parallel redundancy
// patterns (parallel evaluation / parallel selection), hedged sequential
// alternatives, and the parallel campaign runner.
//
// Each worker owns a Chase–Lev deque (util/chase_lev_deque.hpp): the owner
// pushes and pops at the bottom with plain release stores (LIFO, cache-hot)
// and thieves CAS the top (FIFO, oldest first) — no mutex anywhere on the
// worker hot path. Submissions from non-worker threads land in one
// injector: a mutex-protected FIFO chain with a lock-free emptiness probe
// on its own cache line. The outside submitters are few (a gateway reactor
// posts one batch per loop iteration, a campaign posts one batch), so the
// one lock is not contended (EXPERIMENTS.md E21). Workers drain the
// injector in amortized batches into their own deques, where the tasks
// become stealable. Idle workers park on their own mutex+condvar pair (one
// parking lot per worker, not a global broadcast condition variable): a
// submitter wakes exactly one parked worker, and a worker that dequeues
// work while more is pending wakes the next — wake-ups chain instead of
// stampeding.
//
// Workers and outside helpers claim work through one path: own deque
// (workers only), then the injector, then one steal sweep over the other
// deques. Each thread starts its sweep one victim further on every call,
// so simultaneously-starved thieves fan out instead of stampeding one
// deque.
//
// submit_batch posts a whole fan-out with one pending-counter epoch and one
// wake-up instead of N; BatchRunner (bottom of this header) is the reusable
// builder the pattern executors use, so a steady-state variant fan-out
// performs no allocation beyond recycled task nodes.
//
// A run_all waiter that is itself a pool worker *helps*: while blocked it
// steals and executes queued tasks, so nested fan-out on the shared pool
// cannot deadlock even when every worker is itself waiting. An external
// run_all waiter does not run other work, but it runs the tasks of its own
// batch that no worker has claimed after a 1 ms poll, so its wait ends even
// when every worker is blocked on a lock it holds. A pattern's race
// (core/race.hpp) has one rule for both kinds of waiter: it runs no other
// work, and runs its own unclaimed legs itself when every worker is busy
// (saturated()), but for a leg a pending hedge deadline is meant to
// overtake.
//
// When the obs:: layer is enabled the engine reports itself through the
// metrics registry: pool.tasks_posted/executed/stolen/helped counters, a
// pool.queue_depth_at_post histogram, a pool.task_exec_ns latency histogram,
// and a pool.steal_ns histogram over successful steal operations. Disabled
// cost is one relaxed atomic load per site.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/cacheline.hpp"
#include "util/chase_lev_deque.hpp"
#include "util/unique_function.hpp"

namespace redundancy::util {

/// Cooperative cancellation: a shared flag observed by in-flight tasks.
/// Copies share the flag. Cancelling never interrupts a running task; it
/// tells tasks that have not started (and cooperative loops inside tasks)
/// that their result is no longer wanted.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }
  void cancel() const noexcept {
    flag_->store(true, std::memory_order_release);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

namespace pool_detail {

/// A queued task. Owned linearly: freelist/submitter → deque or injector →
/// executor → freelist. Handed across threads only through the deque's
/// release/acquire slot protocol or the injector mutex, so the payload needs
/// no synchronization of its own. Recycled through a bounded thread-local
/// cache, making the steady-state submit path allocation-free. Cache-line
/// aligned: the executor writes the node (payload teardown, next link)
/// while the recycler chains through it — a node sharing a line with its
/// freelist neighbour would ping-pong between the freeing and reusing
/// threads.
struct alignas(kCacheLine) TaskNode {
  UniqueFunction<void()> task;
  TaskNode* next = nullptr;  ///< injector/freelist chain link
  /// False for tasks that must never run nested inside a help-wait (see
  /// try_run_one): tasks that may take locks or block — e.g. gateway route
  /// jobs — would self-deadlock if a pattern's helping wait re-entered one
  /// on a stack frame that already holds the same lock. Workers in their
  /// normal loop run every task regardless.
  bool helpable = true;
};
static_assert(sizeof(TaskNode) % kCacheLine == 0,
              "adjacent task nodes must not share a cache line");

/// Per-worker state: the lock-free deque plus a private parking lot.
/// Aligned and padded to whole cache lines so workers packed in an array
/// never share a line: the deque indices are the hottest words in the
/// engine (owner writes bottom, every thief CASes top), and the parking
/// flags are written by submitters during the wake handshake. The deque
/// leads (its own internal alignment keeps top/bottom apart); the parking
/// lot trails on its own line — it is only touched on the park/unpark
/// slow path, so parking traffic never invalidates deque lines.
struct alignas(kCacheLine) Worker {
  ChaseLevDeque<TaskNode*> deque;
  alignas(kCacheLine) std::mutex m;  ///< guards the condvar handshake only
  std::condition_variable cv;
  std::atomic<bool> parked{false};   ///< registered as sleeping
  std::atomic<bool> notified{false}; ///< wake token (consumed on wake)
};
static_assert(sizeof(Worker) % kCacheLine == 0,
              "adjacent workers must not share a cache line");

/// The injector: a mutex-protected FIFO chain of externally-submitted
/// tasks. The emptiness probe (`size`) sits alone on the first line so the
/// every-claim "is there injector work?" check by idle workers never
/// touches the line the lock and chain pointers bounce on.
struct alignas(kCacheLine) InjectorLane {
  std::atomic<std::size_t> size{0};  ///< lock-free emptiness probe
  char probe_pad_[kCacheLine - sizeof(std::atomic<std::size_t>)]{};
  std::mutex m;
  TaskNode* head = nullptr;
  TaskNode* tail = nullptr;
};
static_assert(sizeof(InjectorLane) % kCacheLine == 0,
              "the injector must not share a line with its neighbours");

}  // namespace pool_detail

class ThreadPool {
 public:
  using Task = UniqueFunction<void()>;

  enum class ExceptionPolicy {
    swallow,  ///< drop exceptions thrown by tasks
    forward,  ///< rethrow the first task exception in the waiting thread
  };

  /// Spawns `threads` workers (defaults to hardware concurrency, min 2).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its result. The callable is moved
  /// straight into the queue — no shared_ptr/packaged-task heap wrapping.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> task{std::forward<F>(fn)};
    std::future<R> fut = task.get_future();
    post(Task{std::move(task)});
    return fut;
  }

  /// Enqueue a fire-and-forget task. The task must not throw.
  void post(Task task);

  /// Enqueue every task in the span (each is moved from) with a single
  /// pending-counter update and a single wake-up: the woken worker wakes
  /// the next as long as work remains, so a whole variant fan-out pays one
  /// epoch of bookkeeping instead of N. From a worker thread the batch goes
  /// to the worker's own deque (thieves distribute it); from an external
  /// thread it is appended to the injector under one lock. `helpable =
  /// false` marks every task in the batch as off-limits to helping waits
  /// (see TaskNode::helpable) — only dedicated workers will run them.
  void submit_batch(std::span<Task> tasks, bool helpable = true);

  /// Run all tasks, blocking until every one has completed. Exceptions are
  /// swallowed by default; ExceptionPolicy::forward rethrows the first task
  /// exception in the waiting thread. A waiting worker helps execute queued
  /// tasks; an external waiter runs the tasks of its batch that are still
  /// unclaimed after each 1 ms poll. run_all is a barrier, so the caller's
  /// tasks are borrowed, not moved, and the whole batch is submitted with
  /// one wake-up.
  void run_all(std::span<Task> tasks,
               ExceptionPolicy policy = ExceptionPolicy::swallow);
  void run_all(std::vector<Task> tasks,
               ExceptionPolicy policy = ExceptionPolicy::swallow) {
    run_all(std::span<Task>{tasks}, policy);
  }

  /// Steal one queued task and run it on the calling thread. Returns false
  /// if every deque (and the injector) was empty. A non-helpable task (see
  /// TaskNode::helpable) is never run here: it is handed back to the
  /// injector (with a wake, so a dedicated worker picks it up) and the call
  /// reports no progress — running it nested inside a blocked frame could
  /// deadlock on locks that frame holds.
  bool try_run_one();

  /// Block until no task is queued or running — i.e. all stragglers of the
  /// patterns' races have settled. The caller helps drain the queues while
  /// waiting.
  void wait_idle();

  /// Wait until done() holds. A caller that is itself a worker of this pool
  /// helps with queued work instead of blocking (otherwise nested fan-out
  /// could leave every worker waiting on tasks nobody runs); an external
  /// caller just waits. run_all's workers and the result cache's coalesced
  /// waiters wait here; a race waits by its own rule (core/race.hpp).
  /// `lock` must be held on entry and is held again on return; done() is
  /// only evaluated under the lock. Between notifications the wait polls
  /// done() every millisecond.
  template <typename Pred>
  void help_until(std::unique_lock<std::mutex>& lock,
                  std::condition_variable& cv, Pred done) {
    const bool helper = on_worker_thread();
    while (!done()) {
      if (helper) {
        lock.unlock();
        const bool ran = try_run_one();
        lock.lock();
        if (done()) break;
        if (ran) continue;
      }
      cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks the calling thread has queued on any ThreadPool so far (post,
  /// submit, submit_batch, run_all). Read before and after a call, it tells
  /// whether that call fanned out: the gateway sends a route that did back
  /// to the pool.
  [[nodiscard]] static std::uint64_t submitted_by_this_thread() noexcept;

  /// True while every worker is running a task (a racy snapshot, in which
  /// tasks run nested or by outside helpers count too). A race waiter runs
  /// its own unclaimed legs only then: a worker that is parked, starting up
  /// or between tasks would take them.
  [[nodiscard]] bool saturated() const noexcept {
    return active_.load(std::memory_order_acquire) >= nworkers_;
  }

  /// True on one of this pool's worker threads.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Number of tasks queued but not yet claimed by a worker. Transiently
  /// over-counts during a submission (the counter rises before the nodes
  /// land), never under-counts.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// True when no task is queued or running. Claims raise active_ before
  /// dropping pending_, and submissions raise pending_ before the nodes
  /// land, so this can transiently read false for an idle pool but never
  /// true for a busy one — safe to poll as a quiescence barrier without
  /// the helping drain wait_idle() performs.
  [[nodiscard]] bool idle() const noexcept {
    return pending_.load(std::memory_order_acquire) == 0 &&
           active_.load(std::memory_order_acquire) == 0;
  }

  /// Process-wide shared pool for pattern executors that do not own one.
  /// Sized from the REDUNDANCY_THREADS environment variable when set to a
  /// valid count (1..1024), otherwise max(hardware concurrency, 8) —
  /// latency-bound redundancy patterns want a variant-wide fan-out even on
  /// small machines. Invalid values (zero, negative, garbage, overflow)
  /// are rejected with a stderr warning and fall back.
  static ThreadPool& shared();

  /// The size shared() would use (exposed so the env-var parsing is
  /// testable without touching the process-wide singleton).
  static std::size_t shared_size_from_env() noexcept;

 private:
  using TaskNode = pool_detail::TaskNode;
  using Worker = pool_detail::Worker;
  using InjectorLane = pool_detail::InjectorLane;

  void worker_loop(std::size_t self);

  /// Claim the next runnable node for worker `self`, or for an outside
  /// helper when self == kNoWorker: own deque (workers only), then the
  /// injector, then one steal sweep over the other deques.
  TaskNode* acquire_task(std::size_t self);
  /// Take the injector's head to run; a worker also moves a fair share of
  /// the backlog into its own deque, where it becomes stealable.
  TaskNode* drain_injector(std::size_t self);
  /// Try every deque but `self`'s once, starting one victim further than
  /// this thread's previous sweep.
  TaskNode* steal_sweep(std::size_t self);
  void enqueue_chain(TaskNode* head, TaskNode* tail, std::size_t n);
  void execute(TaskNode* node);
  void unpark_one();
  void unpark_all();

  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

  // Workers live in one contiguous aligned array (not a vector of
  // unique_ptrs): the per-worker alignas padding, not allocator luck, is
  // what guarantees neighbouring workers never share a line — and the
  // layout test can assert it.
  std::unique_ptr<Worker[]> workers_state_;
  std::size_t nworkers_ = 0;
  InjectorLane injector_;
  std::vector<std::thread> workers_;
  // Each global counter on its own line: pending_ is written by every
  // submit and every claim, active_ by every execute, num_parked_ only on
  // the park/unpark slow path — stacking them on one line would couple the
  // slow path's writes to the hot counters (FL002).
  alignas(kCacheLine) std::atomic<std::size_t> pending_{0};
  alignas(kCacheLine) std::atomic<std::size_t> active_{0};
  alignas(kCacheLine) std::atomic<std::size_t> num_parked_{0};
  std::atomic<bool> stopping_{false};

 public:
  /// Layout introspection for tests/util/layout_test.cpp.
  [[nodiscard]] const void* pending_addr() const noexcept { return &pending_; }
  [[nodiscard]] const void* active_addr() const noexcept { return &active_; }
  [[nodiscard]] const void* parked_count_addr() const noexcept {
    return &num_parked_;
  }
};

/// Reusable fan-out builder: collect the tasks of one submission epoch,
/// then hand the whole batch to the pool at once (one pending-counter
/// update, one wake-up). The internal vector keeps its capacity across
/// epochs, so a pattern that owns a BatchRunner fans out allocation-free in
/// steady state. Not thread-safe; one builder per submitting thread.
class BatchRunner {
 public:
  /// Bind to `pool`, or to ThreadPool::shared() when null. The pool is
  /// resolved lazily so a BatchRunner member does not force singleton
  /// construction at pattern-construction time.
  explicit BatchRunner(ThreadPool* pool = nullptr) noexcept : pool_(pool) {}

  template <typename F>
  void add(F&& fn) {
    tasks_.emplace_back(std::forward<F>(fn));
  }
  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }

  /// Dispatched tasks may take locks or block (e.g. gateway route jobs):
  /// exclude them from helping waits so a pattern's help-wait can never
  /// re-enter one on a stack that already holds the lock it needs.
  void set_helpable(bool helpable) noexcept { helpable_ = helpable; }

  /// Fire-and-forget: submit everything added since the last dispatch.
  void dispatch() {
    pool().submit_batch(tasks_, helpable_);
    tasks_.clear();  // keeps capacity for the next epoch
  }

  /// Barrier: submit the batch and help until every task completed. The
  /// batch is cleared on every exit, a forwarded exception included, so
  /// the next epoch never runs this one's tasks again.
  void run_and_wait(
      ThreadPool::ExceptionPolicy policy = ThreadPool::ExceptionPolicy::swallow) {
    struct Clear {
      std::vector<ThreadPool::Task>& tasks;
      ~Clear() { tasks.clear(); }  // keeps capacity for the next epoch
    } clear{tasks_};
    pool().run_all(std::span<ThreadPool::Task>{tasks_}, policy);
  }

  [[nodiscard]] ThreadPool& pool() noexcept {
    return pool_ != nullptr ? *pool_ : ThreadPool::shared();
  }

 private:
  ThreadPool* pool_;
  std::vector<ThreadPool::Task> tasks_;
  bool helpable_ = true;
};

}  // namespace redundancy::util
