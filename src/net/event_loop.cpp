#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <thread>

namespace redundancy::net {

namespace {

/// Non-zero, stable id for the current thread (hash of std::thread::id).
std::uint64_t thread_cookie() noexcept {
  const std::uint64_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h == 0 ? 1 : h;
}

std::uint32_t to_epoll(std::uint32_t interest) noexcept {
  std::uint32_t ev = EPOLLRDHUP;  // half-close is always interesting
  if (interest & kReadable) ev |= EPOLLIN;
  if (interest & kWritable) ev |= EPOLLOUT;
  return ev;
}

std::uint32_t from_epoll(std::uint32_t ev) noexcept {
  std::uint32_t events = 0;
  if (ev & EPOLLIN) events |= kReadable;
  if (ev & EPOLLOUT) events |= kWritable;
  if (ev & EPOLLERR) events |= kError;
  if (ev & (EPOLLHUP | EPOLLRDHUP)) events |= kHangup;
  return events;
}

}  // namespace

std::uint64_t monotonic_ms() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000'000u;
}

EventLoop::EventLoop() : EventLoop(Options{}) {}

EventLoop::EventLoop(Options options)
    : options_(options),
      wheel_(options_.timer_slots, options_.timer_tick_ms),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  ready_.resize(256);
  // The wakeup fd is a permanent registration; dispatch recognizes it by fd.
  if (!add(wake_fd_, kReadable, nullptr)) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = -1;
    wake_fd_ = -1;
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EventLoop::add(int fd, std::uint32_t interest, IoHandler* handler) {
  if (!ok() || fd < 0) return false;
  if (static_cast<std::size_t>(fd) >= table_.size()) {
    table_.resize(static_cast<std::size_t>(fd) + 1);
  }
  Registration& reg = table_[static_cast<std::size_t>(fd)];
  if (reg.interest != 0 || reg.handler != nullptr) return false;  // duplicate
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  reg.handler = handler;
  reg.interest = interest;
  ++nfds_;
  return true;
}

bool EventLoop::modify(int fd, std::uint32_t interest) {
  if (!ok() || fd < 0 || static_cast<std::size_t>(fd) >= table_.size()) {
    return false;
  }
  Registration& reg = table_[static_cast<std::size_t>(fd)];
  if (reg.interest == 0 && reg.handler == nullptr) return false;
  if (reg.interest == interest) return true;
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) return false;
  reg.interest = interest;
  return true;
}

void EventLoop::remove(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= table_.size()) return;
  Registration& reg = table_[static_cast<std::size_t>(fd)];
  if (reg.interest == 0 && reg.handler == nullptr) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  reg = Registration{};
  --nfds_;
}

void EventLoop::run() {
  if (!ok()) return;
  loop_thread_id_.store(thread_cookie(), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  now_ms_ = monotonic_ms();
  while (!stop_.load(std::memory_order_acquire)) {
    // Grow the ready buffer to the population so one wait can report every
    // ready fd (a 10k-connection burst drains in one iteration).
    if (ready_.size() < nfds_) ready_.resize(nfds_);
    const int n = ::epoll_wait(
        epoll_fd_, ready_.data(), static_cast<int>(ready_.size()),
        wheel_.next_timeout_ms(now_ms_, options_.idle_timeout_ms));
    if (n < 0 && errno != EINTR) break;  // epoll failed hard
    now_ms_ = monotonic_ms();  // handlers see the post-wait clock
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = ready_[static_cast<std::size_t>(i)];
      dispatch(ev.data.fd, from_epoll(ev.events));
    }
    wheel_.advance(now_ms_, [](TimerWheel::Timer& timer) {
      // The wheel stores handler-owned timers; the owner cookie is the
      // IoHandler to notify. A null owner is a plain deadline marker.
      if (timer.owner() != nullptr) {
        static_cast<IoHandler*>(timer.owner())->on_io(0);
      }
    });
    if (cycle_handler_) cycle_handler_();
  }
  running_.store(false, std::memory_order_release);
  stop_.store(false, std::memory_order_release);  // re-runnable
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  for (;;) {
    const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    if (n >= 0 || errno != EINTR) break;  // EAGAIN: a wake is already queued
  }
}

bool EventLoop::in_loop_thread() const noexcept {
  return loop_thread_id_.load(std::memory_order_acquire) == thread_cookie();
}

void EventLoop::dispatch(int fd, std::uint32_t events) {
  if (fd == wake_fd_) {
    std::uint64_t count = 0;
    (void)::read(wake_fd_, &count, sizeof count);  // resets the eventfd
    if (wake_handler_) wake_handler_();
    return;
  }
  if (static_cast<std::size_t>(fd) >= table_.size()) return;
  const Registration reg = table_[static_cast<std::size_t>(fd)];
  // A handler earlier in this batch may have removed (or re-registered)
  // this fd; the table, not the stale readiness record, is authoritative.
  if (reg.handler == nullptr) return;
  reg.handler->on_io(events);
}

}  // namespace redundancy::net
