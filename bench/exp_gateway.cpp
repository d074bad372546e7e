// E22 + E24. Acceptance experiment for the net::Gateway front door: real
// loopback sockets through the epoll loop, batched into the lock-free
// engine, redundancy patterns on the serving path, completions over the
// wakeup fd — sharded across SO_REUSEPORT reactor loops.
//
// Part A (closed loop) — request latency. A handful of keep-alive client
// threads each issue serial requests against the hedged-and-cached /fast
// route and the 3-variant majority-voted /vote route; every round trip is
// timed on the client side, so the numbers include the loop, the engine
// hop, the pattern, and both socket crossings.
//
// Part B (open loop) — burst throughput. Each connection writes a pipelined
// burst of requests back to back, then drains the responses: the arrival
// process does not wait for completions, which is what an external load
// balancer does to a server under load.
//
// Part C (the gate) — concurrent connection scale. Opener threads establish
// as many simultaneous keep-alive connections as the fd budget allows, each
// proving it is actually admitted (one served request) and then staying
// open; with the whole population parked, /metrics and /healthz are probed
// through the same front door and must answer. Gate: >= 10k concurrent
// connections — enforced only on >= 4 cores (below that the box cannot
// host 2x10k sockets' worth of loop + client work; reported otherwise,
// scaled to the RLIMIT_NOFILE budget).
//
// Part D (E24, the scaling gate) — multi-reactor loop sweep. A fresh
// gateway per loop count in {1, 2, 4} runs the same open-loop pipelined
// workload; each count is its own benchmark series (gateway_scaling_loopsN)
// so bench_compare gates each independently. Gate: 4 loops >= 2.5x the
// 1-loop throughput — enforced only on >= 4 cores (below that the reactors
// share a core and the sweep is report-only).
//
// Part B additionally derives sends_per_response from the gateway.sends /
// gateway.responses counter deltas (summed over loop labels): with vectored
// sendmsg coalescing, pipelined bursts must average strictly fewer than one
// syscall per response. Gated unconditionally.
//
// Environment knobs (all optional):
//   REDUNDANCY_GATEWAY_CONNS        Part C target population
//   REDUNDANCY_GATEWAY_DURATION_MS  Part A per-route duration (default 1500)
//   REDUNDANCY_GATEWAY_QPS          Part B pipelined burst size (default 64)
//   REDUNDANCY_GATEWAY_PORT         fixed listen port (default ephemeral)
//   REDUNDANCY_GATEWAY_LOOPS        reactor count of the Part A-C gateway
//
// Emits BENCH_exp_gateway.json in the bench_json_main schema.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/gateway.hpp"
#include "net/loopback_client.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"

using namespace redundancy;

namespace {

constexpr std::size_t kConnScaleGate = 10'000;
constexpr std::size_t kClosedLoopClients = 4;
constexpr std::size_t kOpenLoopConns = 8;
constexpr std::size_t kOpenLoopBursts = 32;
constexpr std::size_t kPipelineDepth = 32;  ///< conn.max_pipeline everywhere
constexpr double kScalingGate = 2.5;        ///< 4-loop vs 1-loop throughput

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(raw, nullptr, 10));
}

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

/// Sum every counter series of one family across its loop-label shards
/// (counter_totals keys are the raw names: "gateway.sends" or
/// "gateway.sends{loop=\"N\"}" — prefix-match both).
std::uint64_t counter_family_total(const std::string& family) {
  std::uint64_t total = 0;
  for (const auto& [key, value] :
       obs::MetricsRegistry::instance().counter_totals()) {
    if (key == family || key.rfind(family + "{", 0) == 0) total += value;
  }
  return total;
}

/// Raise RLIMIT_NOFILE to its hard cap; returns the resulting soft limit.
std::size_t raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  lim.rlim_cur = lim.rlim_max;
  (void)::setrlimit(RLIMIT_NOFILE, &lim);
  (void)::getrlimit(RLIMIT_NOFILE, &lim);
  return static_cast<std::size_t>(lim.rlim_cur);
}

// --------------------------------------------------------------------------
// Part A: closed-loop latency per route
// --------------------------------------------------------------------------

Series closed_loop(std::uint16_t port, const std::string& route,
                   std::size_t duration_ms) {
  std::vector<std::vector<double>> samples(kClosedLoopClients);
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(kClosedLoopClients);
  for (std::size_t c = 0; c < kClosedLoopClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = net::loopback::connect_loopback(port);
      if (fd < 0) return;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t deadline =
          obs::now_ns() + duration_ms * 1'000'000ull;
      std::uint64_t x = c * 1'000'000;
      while (obs::now_ns() < deadline) {
        const std::string request =
            "GET " + route + "?x=" + std::to_string(x++) + " HTTP/1.1\r\n\r\n";
        const std::uint64_t t0 = obs::now_ns();
        if (!net::loopback::send_all(fd, request)) break;
        const net::loopback::Reply reply = net::loopback::read_response(fd);
        if (!reply.complete || reply.status != 200) break;
        samples[c].push_back(double(obs::now_ns() - t0));
      }
      ::close(fd);
    });
  }
  const std::uint64_t t0 = obs::now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  const std::uint64_t wall = obs::now_ns() - t0;
  Series s;
  for (auto& part : samples) {
    s.latency_ns.insert(s.latency_ns.end(), part.begin(), part.end());
  }
  if (s.latency_ns.empty()) return s;
  s.mean_ns = double(wall) / double(s.latency_ns.size());
  return s;
}

// --------------------------------------------------------------------------
// Part B: open-loop pipelined bursts
// --------------------------------------------------------------------------

Series open_loop(std::uint16_t port, std::size_t burst) {
  std::vector<std::vector<double>> samples(kOpenLoopConns);
  std::atomic<std::size_t> failures{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(kOpenLoopConns);
  for (std::size_t c = 0; c < kOpenLoopConns; ++c) {
    clients.emplace_back([&, c] {
      const int fd = net::loopback::connect_loopback(port);
      if (fd < 0) {
        failures.fetch_add(burst * kOpenLoopBursts);
        return;
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t round = 0; round < kOpenLoopBursts; ++round) {
        std::string wire;
        for (std::size_t i = 0; i < burst; ++i) {
          wire += "GET /echo?x=" + std::to_string(c * 10'000 + i) +
                  " HTTP/1.1\r\n\r\n";
        }
        const std::uint64_t t0 = obs::now_ns();
        if (!net::loopback::send_all(fd, wire)) {
          failures.fetch_add(burst);
          break;
        }
        bool ok = true;
        for (std::size_t i = 0; i < burst; ++i) {
          const net::loopback::Reply reply = net::loopback::read_response(fd);
          if (!reply.complete || reply.status != 200) {
            ok = false;
            break;
          }
        }
        if (!ok) {
          failures.fetch_add(1);
          break;
        }
        // Amortized per-request latency inside the burst.
        samples[c].push_back(double(obs::now_ns() - t0) / double(burst));
      }
      ::close(fd);
    });
  }
  const std::uint64_t t0 = obs::now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  const std::uint64_t wall = obs::now_ns() - t0;
  Series s;
  std::size_t requests = 0;
  for (auto& part : samples) {
    requests += part.size() * burst;
    s.latency_ns.insert(s.latency_ns.end(), part.begin(), part.end());
  }
  if (failures.load() != 0) {
    std::fprintf(stderr, "exp_gateway: open loop lost %zu requests\n",
                 failures.load());
    std::exit(2);
  }
  if (requests > 0) s.mean_ns = double(wall) / double(requests);
  return s;
}

// --------------------------------------------------------------------------
// Part C: concurrent connection scale (the gate)
// --------------------------------------------------------------------------

struct ScaleResult {
  Series series;          // per-connection establish+first-request latency
  std::size_t admitted = 0;
  bool metrics_ok = false;
  bool healthz_ok = false;
};

ScaleResult conn_scale(std::uint16_t port, std::size_t target) {
  constexpr std::size_t kOpeners = 4;
  std::vector<std::vector<int>> held(kOpeners);
  std::vector<std::vector<double>> samples(kOpeners);
  std::vector<std::thread> openers;
  openers.reserve(kOpeners);
  const std::uint64_t t0 = obs::now_ns();
  for (std::size_t o = 0; o < kOpeners; ++o) {
    openers.emplace_back([&, o] {
      const std::size_t share =
          target / kOpeners + (o < target % kOpeners ? 1 : 0);
      held[o].reserve(share);
      for (std::size_t i = 0; i < share; ++i) {
        const std::uint64_t c0 = obs::now_ns();
        const int fd = net::loopback::connect_loopback(port);
        if (fd < 0) return;  // fd budget or backlog exhausted: stop here
        // Prove admission: the connection must actually be served once
        // while everything opened before it stays parked.
        if (!net::loopback::send_all(
                fd, "GET /echo?x=" + std::to_string(o) + " HTTP/1.1\r\n\r\n")) {
          ::close(fd);
          return;
        }
        const net::loopback::Reply reply = net::loopback::read_response(fd);
        if (!reply.complete || reply.status != 200) {
          ::close(fd);
          return;
        }
        held[o].push_back(fd);
        samples[o].push_back(double(obs::now_ns() - c0));
      }
    });
  }
  for (auto& t : openers) t.join();
  const std::uint64_t wall = obs::now_ns() - t0;

  ScaleResult result;
  for (auto& part : held) result.admitted += part.size();
  for (auto& part : samples) {
    result.series.latency_ns.insert(result.series.latency_ns.end(),
                                    part.begin(), part.end());
  }
  if (result.admitted > 0) {
    result.series.mean_ns = double(wall) / double(result.admitted);
  }

  // With the whole population parked, the operational endpoints must still
  // answer through the same front door.
  const net::loopback::Reply metrics = net::loopback::http_get(port, "/metrics");
  result.metrics_ok =
      metrics.status == 200 &&
      metrics.body.find("gateway_requests") != std::string::npos &&
      metrics.body.find("gateway_accepted") != std::string::npos;
  const net::loopback::Reply healthz = net::loopback::http_get(port, "/healthz");
  result.healthz_ok = healthz.status == 200;

  for (auto& part : held) {
    for (const int fd : part) ::close(fd);
  }
  return result;
}

// --------------------------------------------------------------------------
// Part D (E24): multi-reactor loop-scaling sweep
// --------------------------------------------------------------------------

/// One sweep point: a fresh gateway with exactly `loops` reactors serving
/// the open-loop pipelined workload. Returns the amortized-latency series
/// (ops_per_sec is the scaling measure).
Series loop_scaling_point(std::size_t loops, std::size_t burst) {
  net::Gateway::Options options;
  options.loops = loops;
  options.conn.max_pipeline = kPipelineDepth;
  options.conn.max_inflight = 4096;
  net::Gateway gateway{options};
  net::install_demo_routes(gateway);
  if (!gateway.start()) {
    std::fprintf(stderr, "exp_gateway: sweep gateway (%zu loops) failed\n",
                 loops);
    std::exit(2);
  }
  Series s = open_loop(gateway.port(), burst);
  gateway.stop();
  if (gateway.jobs_inflight() != 0) {
    std::fprintf(stderr, "exp_gateway: sweep (%zu loops) leaked jobs\n",
                 loops);
    std::exit(2);
  }
  return s;
}

void write_json(const std::vector<std::pair<std::string, Series>>& all,
                std::size_t threads, double sends_per_response) {
  const char* path = "BENCH_exp_gateway.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_gateway: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"binary\": \"exp_gateway\",\n");
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
  // Syscall-batching efficiency of the pipelined part: sendmsg calls per
  // response (lower is better; < 1.0 means coalescing is working).
  std::fprintf(f,
               ",\n    {\"name\": \"gateway_send_batching\", "
               "\"sends_per_response\": %.4f, \"threads\": %zu}",
               sends_per_response, threads);
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t fd_budget = raise_fd_limit();
  // Each loopback connection costs two fds in this process (client + server
  // side); leave headroom for the pool, the loop, and stdio.
  const std::size_t fd_conn_cap = fd_budget > 512 ? (fd_budget - 256) / 2 : 64;
  const std::size_t conn_target = std::min(
      env_or("REDUNDANCY_GATEWAY_CONNS", kConnScaleGate), fd_conn_cap);
  const std::size_t duration_ms =
      env_or("REDUNDANCY_GATEWAY_DURATION_MS", 1500);
  const std::size_t burst = env_or("REDUNDANCY_GATEWAY_QPS", 64);

  net::Gateway::Options options;
  options.conn.port =
      static_cast<std::uint16_t>(env_or("REDUNDANCY_GATEWAY_PORT", 0));
  options.conn.max_connections = conn_target + 64;
  options.conn.max_inflight = 4096;
  options.conn.max_pipeline = kPipelineDepth;
  options.conn.idle_timeout_ms = 120'000;  // parked population must survive
  net::Gateway gateway{options};
  net::install_demo_routes(gateway);
  if (!gateway.start()) {
    std::fprintf(stderr, "exp_gateway: gateway failed to start\n");
    return 2;
  }
  std::printf(
      "E22+E24. Gateway front door: multi-reactor loops -> submit_batch "
      "-> completions\n\n");
  std::printf("port %u, fd budget %zu, %zu cores, %zu loops\n\n",
              gateway.port(), fd_budget, cores, gateway.loops());

  std::printf("Part A: closed loop, %zu keep-alive clients, %zu ms/route\n",
              kClosedLoopClients, duration_ms);
  const Series fast = closed_loop(gateway.port(), "/fast", duration_ms);
  const Series vote = closed_loop(gateway.port(), "/vote", duration_ms);
  std::printf("  /fast (hedged + cached)   %10.0f req/s  p50 %.0f us  "
              "p99 %.0f us\n",
              fast.ops_per_sec(), fast.percentile(50.0) / 1e3,
              fast.percentile(99.0) / 1e3);
  std::printf("  /vote (3-variant voted)   %10.0f req/s  p50 %.0f us  "
              "p99 %.0f us\n\n",
              vote.ops_per_sec(), vote.percentile(50.0) / 1e3,
              vote.percentile(99.0) / 1e3);

  std::printf("Part B: open loop, %zu conns x %zu bursts of %zu pipelined\n",
              kOpenLoopConns, kOpenLoopBursts, burst);
  const std::uint64_t sends_before = counter_family_total("gateway.sends");
  const std::uint64_t responses_before =
      counter_family_total("gateway.responses");
  const Series pipelined = open_loop(gateway.port(), burst);
  const std::uint64_t sends_delta =
      counter_family_total("gateway.sends") - sends_before;
  const std::uint64_t responses_delta =
      counter_family_total("gateway.responses") - responses_before;
  const double sends_per_response =
      responses_delta > 0 ? double(sends_delta) / double(responses_delta) : 1.0;
  std::printf("  /echo pipelined           %10.0f req/s  p50 %.1f us "
              "amortized\n",
              pipelined.ops_per_sec(), pipelined.percentile(50.0) / 1e3);
  const bool batching_ok = sends_per_response < 1.0;
  std::printf("  sendmsg per response      %10.4f  (%llu sends / %llu "
              "responses)  gate < 1.0 -> %s\n\n",
              sends_per_response,
              static_cast<unsigned long long>(sends_delta),
              static_cast<unsigned long long>(responses_delta),
              batching_ok ? "PASS" : "FAIL");

  std::printf("Part C: concurrent connection scale, target %zu\n",
              conn_target);
  const ScaleResult scale = conn_scale(gateway.port(), conn_target);
  std::printf("  admitted + served         %10zu connections\n",
              scale.admitted);
  std::printf("  /metrics under load       %s\n",
              scale.metrics_ok ? "ok" : "FAILED");
  std::printf("  /healthz under load       %s\n",
              scale.healthz_ok ? "ok" : "FAILED");

  const bool gate_active = cores >= 4;
  bool pass = batching_ok && scale.metrics_ok && scale.healthz_ok &&
              scale.admitted == conn_target;
  if (gate_active) {
    pass = pass && scale.admitted >= kConnScaleGate;
    std::printf("  scale gate >= %zu -> %s\n\n", kConnScaleGate,
                pass ? "PASS" : "FAIL");
  } else {
    std::printf("  scale gate >= %zu skipped: < 4 cores, fd-budget target "
                "%zu -> %s\n\n",
                kConnScaleGate, conn_target, pass ? "ok" : "FAIL");
  }

  gateway.stop();
  if (gateway.jobs_inflight() != 0) {
    std::fprintf(stderr, "exp_gateway: jobs leaked past stop()\n");
    return 2;
  }

  std::printf("Part D: loop-scaling sweep, same open-loop workload per "
              "reactor count\n");
  std::vector<std::pair<std::string, Series>> sweep;
  for (const std::size_t loops : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    Series s = loop_scaling_point(loops, burst);
    std::printf("  %zu loop%s                   %10.0f req/s  p50 %.1f us "
                "amortized\n",
                loops, loops == 1 ? " " : "s", s.ops_per_sec(),
                s.percentile(50.0) / 1e3);
    sweep.emplace_back("gateway_scaling_loops" + std::to_string(loops),
                       std::move(s));
  }
  const double scaling =
      sweep.front().second.ops_per_sec() > 0.0
          ? sweep.back().second.ops_per_sec() /
                sweep.front().second.ops_per_sec()
          : 0.0;
  if (gate_active) {
    const bool scaling_ok = scaling >= kScalingGate;
    pass = pass && scaling_ok;
    std::printf("  4-loop / 1-loop           %10.2fx  gate >= %.1fx -> %s\n\n",
                scaling, kScalingGate, scaling_ok ? "PASS" : "FAIL");
  } else {
    std::printf("  4-loop / 1-loop           %10.2fx  gate >= %.1fx skipped: "
                "< 4 cores (report only)\n\n",
                scaling, kScalingGate);
  }

  std::vector<std::pair<std::string, Series>> all = {
      {"gateway_fast_closed", fast},
      {"gateway_vote_closed", vote},
      {"gateway_echo_pipelined", pipelined},
      {"gateway_conn_scale", scale.series}};
  for (auto& point : sweep) all.push_back(std::move(point));
  write_json(all, std::clamp<std::size_t>(cores, 2, 8), sends_per_response);
  return pass ? 0 : 1;
}
