// net::EventLoop — the single-threaded readiness loop under the gateway.
//
// One thread, one epoll instance, an eventfd for cross-thread wakeups, and
// a TimerWheel for connection deadlines. Everything that touches a socket
// happens on the loop thread; other threads interact with the loop in
// exactly two ways — wake() (an eventfd write, async-signal-safe cheap) and
// stop() — so fd registration needs no locks and handlers need no
// synchronization.
//
// Dispatch is index-based, not pointer-based: epoll stores the fd in the
// readiness event and the loop resolves fd → IoHandler through its own
// table *at dispatch time*. A handler that closes and removes another fd
// mid-batch (a connection manager shedding its neighbour) simply leaves a
// null table entry behind; the stale readiness record is skipped instead
// of dereferencing a dangling pointer — the classic epoll use-after-close
// hazard designed out.
//
// Each iteration:
//   1. epoll_wait (timeout = min(wheel deadline, idle tick)),
//   2. dispatch ready fds (the wakeup fd drains → wake handler runs),
//   3. advance the timer wheel,
//   4. run the cycle handler — the batching hook: the gateway collects
//      every request parsed during (2) and submits them to the engine as
//      ONE ThreadPool::submit_batch there, so a burst of N readable
//      sockets costs one pending-counter epoch and one worker wake-up.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/timer_wheel.hpp"
#include "util/unique_function.hpp"

// The ready-event buffer holds the system struct by value; the forward
// declaration keeps <sys/epoll.h> out of this header (C++17 std::vector
// supports incomplete element types).
struct epoll_event;

namespace redundancy::net {

/// Readiness interest / event bits.
inline constexpr std::uint32_t kReadable = 1u << 0;
inline constexpr std::uint32_t kWritable = 1u << 1;
inline constexpr std::uint32_t kError = 1u << 2;    ///< EPOLLERR
inline constexpr std::uint32_t kHangup = 1u << 3;   ///< EPOLLHUP/RDHUP

/// Implemented by anything that owns an fd registered with the loop.
class IoHandler {
 public:
  virtual void on_io(std::uint32_t events) = 0;

 protected:
  ~IoHandler() = default;
};

/// Monotonic milliseconds (CLOCK_MONOTONIC) — the clock the wheel runs on.
[[nodiscard]] std::uint64_t monotonic_ms() noexcept;

class EventLoop {
 public:
  // Backend, backend_name() and uring_supported() are kept only because
  // perfbench compiles against them; they go once a benchmark change drops
  // those uses. The loop always runs epoll.
  enum class Backend : std::uint8_t { epoll, uring };
  [[nodiscard]] static const char* backend_name(Backend backend) noexcept {
    return backend == Backend::epoll ? "epoll" : "uring";
  }
  [[nodiscard]] static bool uring_supported() noexcept { return false; }

  struct Options {
    /// Wheel granularity and sizing (see TimerWheel).
    std::uint64_t timer_tick_ms = 10;
    std::size_t timer_slots = 512;
    /// Iteration timeout when no timer is due sooner: how often the loop
    /// re-checks its stop flag even with nothing happening.
    int idle_timeout_ms = 100;
  };

  EventLoop();
  explicit EventLoop(Options options);
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  /// False when epoll_create1 or eventfd failed; a dead loop refuses
  /// add/run.
  [[nodiscard]] bool ok() const noexcept {
    return epoll_fd_ >= 0 && wake_fd_ >= 0;
  }

  /// Register `fd` (must be non-blocking) for `interest` bits. The handler
  /// pointer must stay valid until remove(fd). Loop thread (or pre-run).
  bool add(int fd, std::uint32_t interest, IoHandler* handler);
  /// Change the interest set of a registered fd.
  bool modify(int fd, std::uint32_t interest);
  /// Deregister; pending readiness records for the fd are dropped. Safe to
  /// call from inside any handler during dispatch.
  void remove(int fd);

  /// Run until stop(). Must be called from exactly one thread; that thread
  /// becomes the loop thread for in_loop_thread().
  void run();
  /// Ask the loop to exit its next iteration. Any thread.
  void stop();
  /// Force an immediate iteration (eventfd write). Any thread. Coalesces:
  /// multiple wakes before the drain cost one iteration.
  void wake();

  /// Invoked on the loop thread after the wakeup fd drains — the
  /// completion-queue hook.
  void set_wake_handler(util::UniqueFunction<void()> handler) {
    wake_handler_ = std::move(handler);
  }
  /// Invoked once per iteration after events and timers — the batching
  /// hook (see file comment).
  void set_cycle_handler(util::UniqueFunction<void()> handler) {
    cycle_handler_ = std::move(handler);
  }

  [[nodiscard]] TimerWheel& timers() noexcept { return wheel_; }
  /// Cached once per iteration; cheap enough to call from handlers.
  [[nodiscard]] std::uint64_t now_ms() const noexcept { return now_ms_; }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool in_loop_thread() const noexcept;
  /// Registered fd count (loop thread only; for tests and admission).
  [[nodiscard]] std::size_t registered() const noexcept { return nfds_; }

 private:
  struct Registration {
    IoHandler* handler = nullptr;
    std::uint32_t interest = 0;
  };

  void dispatch(int fd, std::uint32_t events);

  Options options_;
  TimerWheel wheel_;
  std::vector<Registration> table_;  ///< indexed by fd
  std::size_t nfds_ = 0;
  std::uint64_t now_ms_ = 0;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd
  /// Ready-event output buffer, reused across iterations (no
  /// per-iteration allocation in steady state).
  std::vector<::epoll_event> ready_;

  util::UniqueFunction<void()> wake_handler_;
  util::UniqueFunction<void()> cycle_handler_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> loop_thread_id_{0};
};

}  // namespace redundancy::net
