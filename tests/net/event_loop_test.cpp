// EventLoop tests: readiness dispatch, cross-thread wake, timer delivery,
// the cycle hook, interest changes, and the remove-during-dispatch
// guarantee the fd-indexed table provides.
#include "net/event_loop.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

namespace redundancy::net {
namespace {

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) == 0) {
      read_fd = fds[0];
      write_fd = fds[1];
    }
  }
  ~Pipe() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
  void poke() const { (void)::write(write_fd, "x", 1); }
  void drain() const {
    char buf[64];
    (void)::read(read_fd, buf, sizeof buf);
  }
};

struct CountingHandler final : IoHandler {
  std::function<void(std::uint32_t)> fn;
  int calls = 0;
  void on_io(std::uint32_t events) override {
    ++calls;
    if (fn) fn(events);
  }
};

TEST(EventLoop, DispatchesReadableFd) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  Pipe pipe;
  CountingHandler handler;
  handler.fn = [&](std::uint32_t events) {
    EXPECT_TRUE(events & kReadable);
    pipe.drain();
    loop.stop();
  };
  ASSERT_TRUE(loop.add(pipe.read_fd, kReadable, &handler));
  pipe.poke();
  loop.run();
  EXPECT_EQ(handler.calls, 1);
  loop.remove(pipe.read_fd);
}

TEST(EventLoop, WakeRunsWakeHandlerFromAnotherThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  std::atomic<int> wakes{0};
  loop.set_wake_handler([&] {
    wakes.fetch_add(1);
    loop.stop();
  });
  std::thread runner{[&] { loop.run(); }};
  while (!loop.running()) std::this_thread::yield();
  loop.wake();
  runner.join();
  EXPECT_GE(wakes.load(), 1);
}

TEST(EventLoop, TimerFiresThroughOwnerHandler) {
  EventLoop::Options options;
  options.timer_tick_ms = 1;
  options.idle_timeout_ms = 5;
  EventLoop loop{options};
  ASSERT_TRUE(loop.ok());

  CountingHandler handler;
  TimerWheel::Timer timer{&handler};
  handler.fn = [&](std::uint32_t events) {
    EXPECT_EQ(events, 0u);  // timer fires deliver empty event sets
    loop.stop();
  };
  loop.timers().arm(timer, monotonic_ms(), 20);
  const std::uint64_t t0 = monotonic_ms();
  loop.run();
  EXPECT_EQ(handler.calls, 1);
  EXPECT_GE(monotonic_ms() - t0, 19u);
}

TEST(EventLoop, RemoveDuringDispatchSkipsStaleReadiness) {
  // Two ready fds in one wait batch; the first handler removes the second
  // fd. The stale readiness record must be skipped — this is the
  // use-after-close hazard the fd-indexed table is designed against.
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  Pipe a, b;
  CountingHandler ha, hb;
  // Dispatch order within a batch is up to epoll, so each handler
  // removes the *other* fd: exactly one may run, whichever comes first.
  ha.fn = [&](std::uint32_t) {
    a.drain();
    loop.remove(b.read_fd);
    loop.stop();
  };
  hb.fn = [&](std::uint32_t) {
    b.drain();
    loop.remove(a.read_fd);
    loop.stop();
  };
  ASSERT_TRUE(loop.add(a.read_fd, kReadable, &ha));
  ASSERT_TRUE(loop.add(b.read_fd, kReadable, &hb));
  a.poke();
  b.poke();
  loop.run();
  EXPECT_EQ(ha.calls + hb.calls, 1);
  loop.remove(a.read_fd);
  loop.remove(b.read_fd);
}

TEST(EventLoop, CycleHandlerRunsEveryIteration) {
  EventLoop::Options options;
  options.idle_timeout_ms = 1;
  EventLoop loop{options};
  ASSERT_TRUE(loop.ok());
  int cycles = 0;
  loop.set_cycle_handler([&] {
    if (++cycles == 3) loop.stop();
  });
  loop.run();
  EXPECT_EQ(cycles, 3);
}

TEST(EventLoop, ModifyChangesInterestSet) {
  EventLoop::Options options;
  options.idle_timeout_ms = 5;
  EventLoop loop{options};
  ASSERT_TRUE(loop.ok());

  Pipe pipe;
  CountingHandler handler;
  int iterations = 0;
  handler.fn = [&](std::uint32_t) { FAIL() << "interest was cleared"; };
  ASSERT_TRUE(loop.add(pipe.read_fd, kReadable, &handler));
  ASSERT_TRUE(loop.modify(pipe.read_fd, 0));  // deaf to readability
  pipe.poke();
  loop.set_cycle_handler([&] {
    if (++iterations == 3) loop.stop();
  });
  loop.run();
  EXPECT_EQ(handler.calls, 0);
  loop.remove(pipe.read_fd);
}

TEST(EventLoop, KeptBackendNamesReportEpoll) {
  // perfbench still compiles against the backend names and records them
  // in its host fingerprint: the loop is always epoll.
  EXPECT_STREQ(EventLoop::backend_name(EventLoop::Backend::epoll), "epoll");
  EXPECT_FALSE(EventLoop::uring_supported());
}

TEST(EventLoop, StopBeforeRunReturnsImmediately) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  loop.stop();
  loop.run();  // must not hang
  EXPECT_FALSE(loop.running());
}

}  // namespace
}  // namespace redundancy::net
