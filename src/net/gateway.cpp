#include "net/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/sequential_alternatives.hpp"
#include "core/voters.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "util/env.hpp"
#include "util/signals.hpp"
#include "util/topology.hpp"

namespace redundancy::net {

namespace {

/// Reactor count when Options::loops is 0: REDUNDANCY_GATEWAY_LOOPS if set
/// (strict parse: decimal digits only, value in 1..64 — anything else is
/// loudly rejected, matching REDUNDANCY_THREADS), else min(cores/2, 8)
/// with a floor of 1 — half the cores front the engine, the other half
/// runs it.
std::size_t loops_from_env_or_cores() noexcept {
  const std::size_t fallback = std::min<std::size_t>(
      std::max<std::size_t>(std::thread::hardware_concurrency() / 2, 1), 8);
  const char* env = std::getenv("REDUNDANCY_GATEWAY_LOOPS");
  if (env == nullptr) return fallback;
  const std::optional<std::uint64_t> value = util::parse_decimal(env, 1, 64);
  if (!value) {
    std::fprintf(stderr,
                 "[redundancy] REDUNDANCY_GATEWAY_LOOPS='%s' is not a valid "
                 "loop count (expected an integer in 1..64); using %zu "
                 "loops\n",
                 env, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(*value);
}

}  // namespace

bool Gateway::start() {
  if (running_.load(std::memory_order_acquire)) return false;
  util::ignore_sigpipe();
  install_builtin_routes();

  std::size_t n = options_.loops != 0
                      ? std::min<std::size_t>(options_.loops, 64)
                      : loops_from_env_or_cores();
  if (n == 0) n = 1;

  reactors_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->index = i;
    reactor->loop = std::make_unique<EventLoop>(options_.loop);
    if (!reactor->loop->ok()) {
      reactors_.clear();
      return false;
    }
    // Every reactor binds its own listener on the shared port.
    ConnManager::Options conn = options_.conn;
    conn.reuseport = n > 1;
    if (n > 1) conn.metric_label = "loop=" + std::to_string(i);
    if (i > 0) conn.port = reactors_.front()->manager->port();
    reactor->manager = std::make_unique<ConnManager>(*reactor->loop, conn);
    reactor->inline_requests =
        &obs::counter("gateway.inline_requests", conn.metric_label);
    reactor->batch = std::make_unique<util::BatchRunner>(options_.pool);
    // Route jobs take route-level locks (the demo routes serialize their
    // pattern instances): a pattern's helping wait must never run one
    // nested above a frame that already holds such a lock, so gateway
    // batches are off-limits to help-stealing (workers only).
    reactor->batch->set_helpable(false);

    Reactor* rp = reactor.get();
    reactor->manager->set_request_handler(
        [this, rp](std::uint64_t conn_id, const http::Request& request) {
          on_request(*rp, conn_id, request);
        });
    reactor->loop->set_wake_handler([this, rp] { drain_completions(*rp); });
    reactor->loop->set_cycle_handler([this, rp] {
      // One submit_batch per loop iteration, covering every request parsed
      // during this iteration's dispatch phase.
      if (!rp->batch->empty()) rp->batch->dispatch();
      // A completion pushed between the last drain and the epoll_wait entry
      // would wait a full idle tick; the queue check is one relaxed load.
      if (!rp->completions.empty()) drain_completions(*rp);
    });

    if (!reactor->manager->listen()) {
      reactors_.clear();
      return false;
    }
    reactors_.push_back(std::move(reactor));
  }

  running_.store(true, std::memory_order_release);
  for (auto& reactor : reactors_) {
    Reactor* rp = reactor.get();
    const bool pin = n > 1;
    rp->thread = std::thread([rp, pin] {
      const std::size_t cpus = std::thread::hardware_concurrency();
      // One front-door loop per CPU, in index order. Best-effort only.
      if (pin && cpus > 1) util::pin_current_thread_to_cpu(rp->index % cpus);
      rp->loop->run();
    });
  }
  return true;
}

void Gateway::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& reactor : reactors_) reactor->loop->stop();
  for (auto& reactor : reactors_) reactor->thread.join();
  // The loops are dead: no thread touches the sockets any more, so teardown
  // can run from here. In-flight jobs still execute on pool workers and
  // push completions; wait for the last one, then free the orphans. A loop
  // that died mid-iteration may leave undispatched tasks in its batch —
  // flush them so every created job settles and the inflight wait ends.
  for (auto& reactor : reactors_) {
    if (!reactor->batch->empty()) reactor->batch->dispatch();
    reactor->manager->stop_listening();
    reactor->manager->close_all();
  }
  while (jobs_inflight() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& reactor : reactors_) {
    for (CompletionNode* node = reactor->completions.drain();
         node != nullptr;) {
      CompletionNode* next = node->next;
      delete static_cast<Job*>(node);
      node = next;
    }
  }
  // Keep the (joined, drained) reactors so loops() and jobs_inflight(loop)
  // stay answerable after a clean stop — the e2e drill asserts per-loop
  // zeros post-shutdown. start() clears the vector before rebuilding.
}

void Gateway::on_request(Reactor& reactor, std::uint64_t conn_id,
                         const http::Request& request) {
  const auto it = routes_.find(request.path);
  const std::uint64_t seq = reactor.manager->dispatching_seq();
  if (it == routes_.end()) {
    // Inline 404, addressed by pipeline slot: with pipelining, earlier
    // requests of this connection may still be on workers, and "oldest
    // unanswered" would be the wrong one.
    reactor.manager->respond(
        conn_id, seq, {404, "text/plain; charset=utf-8", "not found\n"});
    return;
  }
  Route& route = it->second;
  const std::uint64_t t0_ns = obs::now_ns();
  if (obs::flight_enabled()) {
    // Arrival breadcrumb: a crash dump shows what was *in flight*, not
    // only what completed. a=0 marks arrival (completion carries status).
    obs::FlightRecorder::instance().record(obs::FlightKind::gateway,
                                           request.path, 0, 0, 0, true);
  }
  Request owned{std::string{request.method}, std::string{request.path},
                std::string{request.query}, std::string{request.body}};
  if (route.placement.inline_ok()) {
    // A short leaf: answering here saves the loop → worker → loop trip,
    // and the response leaves with this parse pass's flush.
    http::Response response = run_route(route, owned);
    reactor.inline_requests->add();
    settle(route, owned.path, response.status, t0_ns);
    reactor.manager->respond(conn_id, seq, std::move(response));
    return;
  }
  auto* job = new Job;
  job->conn_id = conn_id;
  job->seq = seq;
  job->reactor = &reactor;
  job->request = std::move(owned);
  job->route = &route;
  job->t0_ns = t0_ns;
  reactor.jobs_inflight.fetch_add(1, std::memory_order_relaxed);
  reactor.batch->add([this, job] { run_job(job); });
}

http::Response Gateway::run_route(Route& route,
                                  const Request& request) noexcept {
  // Every run teaches the route's placement, wherever it ran. A run that
  // queued pool work paid (or made its loop pay) a pool round trip however
  // short it looked, so it restarts the streak like an over-budget run; a
  // route that stops queueing pool work earns its loop back.
  const std::uint64_t submitted0 = util::ThreadPool::submitted_by_this_thread();
  const std::uint64_t t0 = obs::now_ns();
  http::Response response;
  try {
    response = route.handler(request);
  } catch (...) {
    response = {500, "text/plain; charset=utf-8", "handler error\n"};
  }
  if (util::ThreadPool::submitted_by_this_thread() != submitted0) {
    route.placement.reset();
  } else {
    route.placement.observe(obs::now_ns() - t0);
  }
  return response;
}

void Gateway::run_job(Job* job) noexcept {
  job->response = run_route(*job->route, job->request);
  // Publish (and wake the OWNING reactor only) before the inflight
  // decrement: once jobs_inflight hits zero during stop(), every job is
  // reachable from its queue and no worker touches a loop again.
  Reactor* reactor = job->reactor;
  const bool was_empty = reactor->completions.push(job);
  if (was_empty) reactor->loop->wake();
  reactor->jobs_inflight.fetch_sub(1, std::memory_order_release);
}

void Gateway::drain_completions(Reactor& reactor) {
  CompletionNode* node = reactor.completions.drain();
  if (node == nullptr) return;
  // Batch the whole drain: every response this burst delivers to the same
  // connection leaves in one sendmsg() at flush_batch().
  reactor.manager->begin_batch();
  while (node != nullptr) {
    CompletionNode* next = node->next;
    auto* job = static_cast<Job*>(node);
    settle(*job->route, job->request.path, job->response.status, job->t0_ns);
    reactor.manager->respond(job->conn_id, job->seq,
                             std::move(job->response));
    delete job;
    node = next;
  }
  reactor.manager->flush_batch();
}

void Gateway::settle(const Route& route, const std::string& path, int status,
                     std::uint64_t t0_ns) {
  const bool flight = obs::flight_enabled();
  const bool scored = options_.slo != nullptr && route.scored;
  if (!flight && !scored) return;
  const std::uint64_t latency_ns = obs::now_ns() - t0_ns;
  if (scored) {
    // The request class is the exact route path; 5xx is an availability
    // error regardless of latency, anything else is judged against the
    // class's latency target.
    options_.slo->observe(path, latency_ns, status < 500);
  }
  if (flight) {
    obs::FlightRecorder::instance().record(
        obs::FlightKind::gateway, path, 0, static_cast<std::uint64_t>(status),
        latency_ns, status < 500);
  }
}

http::Response Gateway::serve_cached(
    OpsCache& cache, const std::function<http::Response()>& render) {
  const std::uint64_t ttl_ns = options_.ops_cache_ttl_ms * 1'000'000ULL;
  const std::uint64_t now = obs::now_ns();
  std::lock_guard lock(cache.mutex);
  if (ttl_ns != 0 && cache.rendered_at_ns != 0 &&
      now >= cache.rendered_at_ns && now - cache.rendered_at_ns < ttl_ns) {
    return cache.response;
  }
  cache.response = render();
  cache.rendered_at_ns = now;
  obs::counter("gateway.ops_renders", options_.conn.metric_label).add();
  return cache.response;
}

void Gateway::add_ops_route(std::string path, Handler handler) {
  const auto [it, inserted] = routes_.try_emplace(std::move(path));
  if (!inserted) return;  // the caller's own route wins
  it->second.handler = std::move(handler);
  it->second.scored = false;
}

void Gateway::install_builtin_routes() {
  // The ops routes serve a short-TTL cached render: a scrape storm (or a
  // scraper polling faster than the TTL) costs at most one registry walk
  // per TTL, so scraping can never stall request I/O behind it.
  add_ops_route("/metrics", [this](const Request&) -> http::Response {
    return serve_cached(metrics_cache_, [] {
      obs::Recorder::instance().flush();
      return http::Response{
          200, "text/plain; version=0.0.4; charset=utf-8",
          obs::MetricsRegistry::instance().render_prometheus_text()};
    });
  });
  obs::SloTracker* slo = options_.slo;
  add_ops_route("/healthz", [this, slo](const Request&) -> http::Response {
    return serve_cached(healthz_cache_, [slo] {
      if (slo == nullptr) {
        return http::Response{200, "text/plain; charset=utf-8", "ok\n"};
      }
      const obs::HealthReport report = slo->health(obs::now_ns());
      return http::Response{report.status == obs::SloState::failing ? 503
                                                                     : 200,
                            "text/plain; charset=utf-8", report.text()};
    });
  });
  if (slo != nullptr) {
    add_ops_route("/slo", [this, slo](const Request&) -> http::Response {
      return serve_cached(slo_cache_, [slo] {
        obs::Recorder::instance().flush();
        return http::Response{200, "application/x-ndjson",
                              slo->snapshot_jsonl(obs::now_ns())};
      });
    });
  }
  add_ops_route("/debug/flight", [](const Request&) -> http::Response {
    if (!obs::flight_enabled()) {
      return {404, "text/plain; charset=utf-8", "flight recorder disabled\n"};
    }
    obs::Recorder::instance().flush();
    return {200, "application/x-ndjson",
            obs::FlightRecorder::instance().dump_jsonl()};
  });
}

namespace {

/// The demo serving surface: each route owns its pattern instance behind a
/// mutex (pattern metrics are owner-thread by contract — the fan-out each
/// run() performs on the pool is still parallel).
struct DemoRoutes {
  DemoRoutes()
      : fast(fast_alternatives(), core::accept_all<std::uint64_t,
                                                   std::uint64_t>()),
        vote(vote_variants(),
             core::majority_voter<std::uint64_t>(),
             core::Concurrency::threaded) {
    fast.set_obs_label("gateway_fast");
    core::SequentialAlternatives<std::uint64_t,
                                 std::uint64_t>::Options::Hedge hedge;
    hedge.enabled = true;
    hedge.fallback_budget_ns = 2'000'000;  // 2ms until the histogram warms
    fast.set_hedge(hedge);
    fast.enable_cache();
    vote.set_obs_label("gateway_vote");
  }

  /// The demo computation both routes serve: a short iterated-hash chain
  /// (cheap, deterministic, un-optimizable-away).
  static std::uint64_t chain(std::uint64_t x, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 29;
    }
    return x;
  }

  static std::vector<core::Variant<std::uint64_t, std::uint64_t>>
  fast_alternatives() {
    std::vector<core::Variant<std::uint64_t, std::uint64_t>> alts;
    alts.push_back(core::make_variant<std::uint64_t, std::uint64_t>(
        "chain/primary", [](const std::uint64_t& x) {
          return core::Result<std::uint64_t>{chain(x, 64)};
        }));
    alts.push_back(core::make_variant<std::uint64_t, std::uint64_t>(
        "chain/alternate", [](const std::uint64_t& x) {
          return core::Result<std::uint64_t>{chain(x, 64)};
        }));
    return alts;
  }

  static std::vector<core::Variant<std::uint64_t, std::uint64_t>>
  vote_variants() {
    std::vector<core::Variant<std::uint64_t, std::uint64_t>> vars;
    for (const char* name : {"chain/v1", "chain/v2", "chain/v3"}) {
      vars.push_back(core::make_variant<std::uint64_t, std::uint64_t>(
          name, [](const std::uint64_t& x) {
            return core::Result<std::uint64_t>{chain(x, 64)};
          }));
    }
    return vars;
  }

  std::mutex fast_m;
  std::mutex vote_m;
  core::SequentialAlternatives<std::uint64_t, std::uint64_t> fast;
  core::ParallelEvaluation<std::uint64_t, std::uint64_t> vote;
};

}  // namespace

void install_demo_routes(Gateway& gateway) {
  auto demo = std::make_shared<DemoRoutes>();

  gateway.add_route(
      "/fast", [demo](const Gateway::Request& req) -> http::Response {
        const std::uint64_t x = http::query_param(req.query, "x").value_or(0);
        core::Result<std::uint64_t> r = [&] {
          std::lock_guard lock(demo->fast_m);
          return demo->fast.run(x);
        }();
        if (!r.has_value()) {
          return {500, "text/plain; charset=utf-8", "unrecovered\n"};
        }
        return {200, "text/plain; charset=utf-8",
                std::to_string(r.value()) + "\n"};
      });

  gateway.add_route(
      "/vote", [demo](const Gateway::Request& req) -> http::Response {
        const std::uint64_t x = http::query_param(req.query, "x").value_or(0);
        core::Result<std::uint64_t> r = [&] {
          std::lock_guard lock(demo->vote_m);
          return demo->vote.run(x);
        }();
        if (!r.has_value()) {
          return {500, "text/plain; charset=utf-8", "no quorum\n"};
        }
        return {200, "text/plain; charset=utf-8",
                std::to_string(r.value()) + "\n"};
      });

  gateway.add_route("/echo",
                    [](const Gateway::Request& req) -> http::Response {
                      std::string body = req.body;
                      if (body.empty()) {
                        body = std::to_string(
                                   http::query_param(req.query, "x")
                                       .value_or(0)) +
                               "\n";
                      }
                      return {200, "text/plain; charset=utf-8",
                              std::move(body)};
                    });

  gateway.add_route(
      "/big", [](const Gateway::Request& req) -> http::Response {
        const std::uint64_t n =
            http::query_param(req.query, "n").value_or(1 << 16);
        constexpr std::uint64_t kMax = 64u << 20;
        return {200, "application/octet-stream",
                std::string(static_cast<std::size_t>(n > kMax ? kMax : n),
                            'x')};
      });
}

}  // namespace redundancy::net
