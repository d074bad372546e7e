// net::Gateway — the epoll front door of the redundancy engine.
//
// Composition of the pieces in this directory, wired for the batching
// disciplines the engine already speaks — and sharded across N reactor
// threads so the front door scales with cores:
//
//   Reactor i (loop thread)          ThreadPool workers (shared)
//   ───────────────────────          ──────────────────────────────
//   own SO_REUSEPORT listener
//   accept / read / parse pass
//     ├─ short leaf route: run handler here; answer leaves with the
//     │  pass's one flush
//     └─ otherwise: heap Job, task into reactor i's BatchRunner
//   cycle handler: ONE submit_batch per loop iteration ───▶ run handler
//                                                          (redundancy
//                                                           patterns)
//   wake handler: drain reactor i's CompletionQueue ◀── push(Job) + one
//     └─ ConnManager::respond(conn, seq)             wake per burst — to
//        batched: one sendmsg per conn               the OWNING loop only
//
// Sharding rules (see DESIGN.md): a connection belongs to the reactor
// whose listener accepted it and never migrates; a completion is pushed to
// the completion queue of the reactor that owns the connection, so the
// hand-back path crosses no locks shared between loops. Each reactor owns
// its own EventLoop, ConnManager, BatchRunner, CompletionQueue and timer
// wheel; the only shared mutable state is the thread pool and the metrics
// registry (both already concurrent). The kernel spreads connections
// across the listeners by 4-tuple hash (SO_REUSEPORT). With more than one
// loop, reactor i pins itself to CPU i % cpus (best-effort; start() never
// fails on it).
//
// Loop count: Options::loops, else REDUNDANCY_GATEWAY_LOOPS (strict
// decimal, 1..64, loudly ignored otherwise), else min(max(cores/2,1), 8).
// With one loop the gateway is byte-for-byte the classic single-reactor:
// no loop= metric labels, no pinning, no pipelining changes.
//
// Route handlers return an http::Response; the built-in demo routes put the
// paper's redundancy patterns directly on the serving path (hedged
// sequential alternatives with the result cache, N-of-M voting). Where a
// handler runs is learned from the route's own runs by util::Placement, the
// rule threaded join-all electorates use too, with no option: every route
// starts on the pool, and after kInlineStreak (32) consecutive runs that
// each took under kInlineBudgetNs (20 µs, the pool round trip it saves)
// and queued no pool work it runs on the reactor that parsed the request,
// its response leaving with that parse pass's flush. Every run, pool or
// loop, is measured: one over budget, or one that joined pool work (a
// run_all), restarts the streak and sends the route back to the pool, so
// /vote earns the loop once its electorate runs on the calling thread. A
// reactor that joins pool work runs what the workers leave unclaimed of
// its own batch (ThreadPool::run_all), so it never waits on workers that
// queue behind a lock it holds. It cannot do that for work it posts
// without joining (a race's or a hedge's legs, as /fast's cache misses
// post), so a route whose run posts such work stays on the pool for good,
// where the waiter helps. Both paths score the request against
// Options::slo and leave a flight-recorder record the same way, and the
// per-loop counter gateway.inline_requests counts the inline runs.
//
// The built-in ops routes /metrics, /healthz and /slo are served from a
// short-TTL cached render, so a scrape storm costs at most one render per
// TTL; /debug/flight dumps the flight recorder. /healthz and /slo are
// Options::slo's health view and snapshot; without a tracker /healthz is a
// plain liveness answer. Ops routes are placed like any other route, but
// only the routes added with add_route() are scored against Options::slo —
// a scraper polling the ops routes never becomes an SLO class of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/completion_queue.hpp"
#include "net/conn_manager.hpp"
#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "util/placement.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::obs {
class Counter;
class SloTracker;
}  // namespace redundancy::obs

namespace redundancy::net {

class Gateway {
 public:
  /// An owned copy of one request, alive for the whole worker-side journey
  /// (the connection's buffers mutate as soon as the handler is queued).
  struct Request {
    std::string method;
    std::string path;
    std::string query;
    std::string body;
  };

  /// Runs on a pool worker or, once the route has shown it is a short leaf,
  /// on the reactor that parsed the request (see the file comment); must be
  /// callable concurrently. Throwing yields a 500 for that request only.
  using Handler = std::function<http::Response(const Request&)>;

  struct Options {
    ConnManager::Options conn;
    EventLoop::Options loop;
    /// Engine to dispatch into; nullptr = ThreadPool::shared().
    util::ThreadPool* pool = nullptr;
    /// When set, every completed request on an add_route() route is scored
    /// against its path's SLO class (status < 500 and within the latency
    /// target = good), `GET /slo` serves the tracker's windowed snapshot,
    /// and `GET /healthz` its health view (503 while a row is failing).
    obs::SloTracker* slo = nullptr;
    /// Reactor count. 0 = REDUNDANCY_GATEWAY_LOOPS, else the core-derived
    /// default (see file comment). 1 disables all sharding machinery.
    std::size_t loops = 0;
    /// TTL of the cached /metrics//healthz//slo renders; 0 renders every
    /// scrape (the classic behaviour).
    std::uint64_t ops_cache_ttl_ms = 100;
  };

  Gateway() = default;
  explicit Gateway(Options options) : options_(std::move(options)) {}
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;
  ~Gateway() { stop(); }

  /// Register a handler for an exact path. Before start() only.
  void add_route(std::string path, Handler handler) {
    Route& route = routes_[std::move(path)];
    route.handler = std::move(handler);
    route.scored = true;
    route.placement.reset();
    route.pool_bound.store(false, std::memory_order_relaxed);
  }

  /// Register an ops route: served like any route but never scored against
  /// Options::slo. A caller's add_route() of the same path wins. Before
  /// start() only.
  void add_ops_route(std::string path, Handler handler);

  /// Bind, install the ops routes, spawn the loop threads. False when a
  /// socket or event loop could not be set up. Ignores SIGPIPE.
  bool start();

  /// Stop every loop, close every connection, and wait for in-flight jobs
  /// to settle (their responses are dropped — the sockets are gone).
  /// Idempotent; also runs on destruction.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint16_t port() const noexcept {
    return reactors_.empty() ? 0 : reactors_.front()->manager->port();
  }
  /// Reactor count actually running (resolved at start()).
  [[nodiscard]] std::size_t loops() const noexcept { return reactors_.size(); }
  /// Always epoll. Kept only because perfbench compiles against it; it goes
  /// once a benchmark change drops that use.
  [[nodiscard]] EventLoop::Backend backend() const noexcept {
    return EventLoop::Backend::epoll;
  }
  /// Jobs created minus jobs completed/dropped, summed over all reactors
  /// (for tests; exact once the loops are stopped).
  [[nodiscard]] std::uint64_t jobs_inflight() const noexcept {
    std::uint64_t total = 0;
    for (const auto& r : reactors_) {
      total += r->jobs_inflight.load(std::memory_order_acquire);
    }
    return total;
  }
  /// Same, for one reactor (loop < loops()).
  [[nodiscard]] std::uint64_t jobs_inflight(std::size_t loop) const noexcept {
    return loop < reactors_.size()
               ? reactors_[loop]->jobs_inflight.load(std::memory_order_acquire)
               : 0;
  }

 private:
  /// Where a route runs is read by the reactors on every request. It is
  /// written only when the streak moves: by runs still earning it, and by
  /// runs that overrun the budget or join pool work. The runs of a
  /// pool-bound route write nothing.
  struct Route {
    Handler handler;
    /// Scored against Options::slo: true for add_route(), false for the
    /// ops routes.
    bool scored = true;
    util::Placement placement;
    /// A run posted pool work it does not join: on the pool for good.
    std::atomic<bool> pool_bound{false};

    [[nodiscard]] bool on_loop() const noexcept {
      return !pool_bound.load(std::memory_order_relaxed) &&
             placement.inline_ok();
    }
  };

  /// One front-door shard: everything a loop thread touches, owned by it.
  struct Reactor {
    std::size_t index = 0;
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<ConnManager> manager;
    std::unique_ptr<util::BatchRunner> batch;
    CompletionQueue completions;
    std::thread thread;
    std::atomic<std::uint64_t> jobs_inflight{0};
    obs::Counter* inline_requests = nullptr;  ///< gateway.inline_requests
  };

  struct Job : CompletionNode {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;      ///< pipeline slot within the connection
    Reactor* reactor = nullptr; ///< owning loop: completions go only here
    Request request;
    Route* route = nullptr;     ///< owned by routes_, outlives the job
    http::Response response;
    std::uint64_t t0_ns = 0;  ///< arrival timestamp (SLO/flight latency)
  };

  /// One cached ops-route render (/metrics, /healthz, /slo). Handlers run
  /// concurrently (pool workers and loops), hence the mutex; within ttl_ms
  /// of the last render every scrape is served from the cache.
  struct OpsCache {
    std::mutex mutex;
    http::Response response;
    std::uint64_t rendered_at_ns = 0;
  };

  void on_request(Reactor& reactor, std::uint64_t conn_id,
                  const http::Request& request);
  /// Run the handler on the calling thread (loop or worker): a throw
  /// becomes a 500, and the run teaches the route's placement.
  static http::Response run_route(Route& route,
                                  const Request& request) noexcept;
  void run_job(Job* job) noexcept;
  void drain_completions(Reactor& reactor);
  /// Score a finished request against Options::slo and leave its
  /// completion record in the flight recorder — inline and pool alike.
  void settle(const Route& route, const std::string& path, int status,
              std::uint64_t t0_ns);
  void install_builtin_routes();
  http::Response serve_cached(OpsCache& cache,
                              const std::function<http::Response()>& render);

  Options options_;
  std::map<std::string, Route, std::less<>> routes_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  OpsCache metrics_cache_;
  OpsCache healthz_cache_;
  OpsCache slo_cache_;
  std::atomic<bool> running_{false};
};

/// Install the demo serving surface used by the example server and the
/// gateway benchmark — the paper's patterns behind real routes:
///   /fast?x=N  hedged SequentialAlternatives + RedundancyCache
///   /vote?x=N  3-variant ParallelEvaluation under a majority voter
///   /echo      body (or ?x=) echoed back
///   /big?n=N   N bytes of payload (write-backpressure fodder)
/// Handlers serialize each pattern behind a mutex (pattern metrics are
/// owner-thread by contract); the fan-out inside stays parallel.
void install_demo_routes(Gateway& gateway);

}  // namespace redundancy::net
