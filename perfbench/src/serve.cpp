// The two serving workloads: an open-loop HTTP load generator against a
// net::Gateway started with the program's defaults.
//
// Generator: one thread, kConnections keep-alive loopback connections,
// Poisson arrivals sent on schedule whether or not earlier replies are
// back (a request joins the connection with the fewest unanswered
// requests, and pipelines behind them when all are busy). Latency runs
// from each request's due time to the last byte of its response, so a
// stall also charges the requests queued behind it.
//
// Phases of one run: set-up (repeated kSetupRepeats times), warm-up, then
//   untraced run: a fixed-rate window (p50/p99/CPU) and the rate ladder;
//   traced run:   an untraced and a traced fixed-rate window, then the
//                 isolated layer probes.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "core/parallel_evaluation.hpp"
#include "core/sequential_alternatives.hpp"
#include "host.hpp"
#include "net/gateway.hpp"
#include "net/http.hpp"
#include "net/loopback_client.hpp"
#include "obs/metrics_registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/topology.hpp"

namespace perfbench {

namespace {

namespace core = redundancy::core;
namespace http = redundancy::net::http;
namespace net = redundancy::net;
namespace obs = redundancy::obs;
namespace util = redundancy::util;
using model::Key;
using spans::Name;
using spans::Route;

// One operating point for both serving workloads, so that serve_echo is the
// no-change control for serve_redundant at the same load.
/// Offered rate of the measured window: 1/8 of the lower of the two knees
/// (serve_redundant, ~65k req/s on a 4-core host), the highest fraction in
/// a sweep of 1/16..1/2 at which both workloads kept the slice p99 under
/// 300 us with stalls in at most one slice in five (perfbench/README.md).
constexpr double kFixedRps = 8000.0;
constexpr double kLadderStartRps = 24000.0;
/// The ladder's p99 limit: 40x the fixed-rate p99 (~0.25 ms), so it trips
/// when the server saturates rather than on a burst of stalls.
constexpr double kP99LimitUs = 10000.0;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kZipfKeys = 8192;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kCacheCapacity = 1024;
/// A generator more than 500 us late at p99 (median over slices), or with
/// thousands of requests unanswered, no longer applies the offered load.
constexpr GeneratorLimits kGeneratorLimits{500.0, 4096};
constexpr int kWindowAttempts = 3;
constexpr std::uint64_t kDrainTimeoutNs = 2'000'000'000;
/// Slices of the fixed-rate window and of a ladder step whose p99s are
/// reduced to their median: one scheduling stall then moves one slice, not
/// the reported tail.
constexpr std::size_t kSubWindows = 20;
constexpr std::size_t kStepSlices = 8;
constexpr std::uint64_t kFailed = std::numeric_limits<std::uint64_t>::max();
/// A traced run whose spans leave more of its requests untiled than this
/// fails: its per-layer split would not add up to the latency it explains.
constexpr double kMaxUntiledShare = 0.01;

// ---------------------------------------------------------------------------
// Routes: the benchmark registers its own handlers through
// Gateway::add_route. Each pattern instance sits behind a mutex, as the
// owner-thread contract of pattern metrics requires.

struct Routes {
  Routes()
      : vote(model::voting_versions(Route::vote),
             model::timed_majority(Route::vote), core::Concurrency::threaded),
        fast(model::hedged_alternatives(), core::accept_all<Key, Key>()) {
    vote.set_obs_label("perfbench_vote");
    fast.set_obs_label("perfbench_fast");
    core::SequentialAlternatives<Key, Key>::Options::Hedge hedge;
    hedge.enabled = true;
    hedge.fallback_budget_ns = 2'000'000;
    fast.set_hedge(hedge);
    core::CacheConfig cache;
    cache.capacity = kCacheCapacity;
    cache.label = "perfbench_fast";
    fast.enable_cache(cache);
  }

  std::mutex vote_m;
  core::ParallelEvaluation<Key, Key> vote;
  std::mutex fast_m;
  core::SequentialAlternatives<Key, Key> fast;
};

template <typename Pattern>
net::Gateway::Handler pattern_route(std::shared_ptr<Routes> routes,
                                    std::mutex Routes::*mutex,
                                    Pattern Routes::*pattern, Route route,
                                    const char* failure_body) {
  return [routes, mutex, pattern, route,
          failure_body](const net::Gateway::Request& req) -> http::Response {
    const bool traced = spans::enabled();
    const std::uint64_t t_in = traced ? spans::now_ns() : 0;
    const Key key = http::query_param(req.query, "x").value_or(0);
    const auto id =
        static_cast<std::uint32_t>(http::query_param(req.query, "id").value_or(0));
    std::uint64_t t_locked = 0;
    std::uint64_t t_ran = 0;
    core::Result<Key> r = [&] {
      std::lock_guard lock((*routes).*mutex);
      if (traced) t_locked = spans::now_ns();
      model::t_request_id = id;
      core::Result<Key> out = ((*routes).*pattern).run(key);
      if (traced) t_ran = spans::now_ns();
      return out;
    }();
    http::Response res =
        r.has_value()
            ? http::Response{200, "text/plain; charset=utf-8",
                             std::to_string(r.value()) + "\n"}
            : http::Response{500, "text/plain; charset=utf-8", failure_body};
    if (traced) {
      spans::record(id, Name::route_lock_wait, route, t_in, t_locked);
      spans::record(id, Name::core_run, route, t_locked, t_ran);
      spans::record(id, Name::route_handler, route, t_in, spans::now_ns());
    }
    return res;
  };
}

void install_routes(net::Gateway& gateway, const std::shared_ptr<Routes>& routes) {
  gateway.add_route("/echo", [](const net::Gateway::Request& req) -> http::Response {
    const bool traced = spans::enabled();
    const std::uint64_t t_in = traced ? spans::now_ns() : 0;
    const std::uint64_t x = http::query_param(req.query, "x").value_or(0);
    http::Response res{200, "text/plain; charset=utf-8", std::to_string(x) + "\n"};
    if (traced) {
      spans::record(static_cast<std::uint32_t>(x), Name::route_handler,
                    Route::echo, t_in, spans::now_ns());
    }
    return res;
  });
  gateway.add_route("/vote", pattern_route(routes, &Routes::vote_m, &Routes::vote,
                                           Route::vote, "no quorum\n"));
  gateway.add_route("/fast", pattern_route(routes, &Routes::fast_m, &Routes::fast,
                                           Route::fast, "unrecovered\n"));
}

// ---------------------------------------------------------------------------
// Traffic: the seeded request stream. The program sees only these bytes.

struct Plan {
  std::vector<std::uint64_t> due;  ///< ns after the phase starts
  std::vector<std::uint32_t> id;
  std::vector<Expected> want;
  std::vector<std::uint32_t> offset{0};  ///< request i is bytes[offset[i], offset[i+1])
  std::string bytes;

  [[nodiscard]] std::size_t size() const { return due.size(); }
  [[nodiscard]] std::string_view request(std::size_t i) const {
    return std::string_view{bytes}.substr(offset[i], offset[i + 1] - offset[i]);
  }
  void add(std::uint64_t at, std::uint32_t rid, Expected expected,
           const std::string& wire) {
    due.push_back(at);
    id.push_back(rid);
    want.push_back(expected);
    bytes += wire;
    offset.push_back(static_cast<std::uint32_t>(bytes.size()));
  }
};

class Traffic {
 public:
  Traffic(std::uint64_t seed, bool redundant)
      : rng_(seed), redundant_(redundant) {
    std::uint64_t s = seed;
    tag_ = (util::splitmix64(s) & 0x7fffffffu) | 1u;
    double total = 0.0;
    for (std::size_t r = 0; r < kZipfKeys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      zipf_cdf_.push_back(total);
      zipf_keys_.push_back(util::splitmix64(s));
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  /// Poisson arrivals at `rate` for `seconds`.
  Plan make(double rate, double seconds) {
    Plan plan;
    const double span_ns = seconds * 1e9;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng_.uniform()) / rate * 1e9;
      if (t >= span_ns) break;
      add(plan, static_cast<std::uint64_t>(t));
    }
    return plan;
  }

  /// One /echo per connection, all due at once: the readiness check.
  Plan ready_check() {
    Plan plan;
    for (std::size_t c = 0; c < kConnections; ++c) add_echo(plan, 0);
    return plan;
  }

 private:
  void add(Plan& plan, std::uint64_t at) {
    if (!redundant_) {
      add_echo(plan, at);
      return;
    }
    const std::uint32_t id = next_id_++;
    if (rng_.uniform() < 0.5) {
      const Key key = model::key_with_id(tag_, id);
      plan.add(at, id, model::predicted_vote(key),
               "GET /vote?x=" + std::to_string(key) + "&id=" + std::to_string(id) +
                   " HTTP/1.1\r\n\r\n");
    } else {
      const double u = rng_.uniform();
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      const Key key = zipf_keys_[std::min(rank, kZipfKeys - 1)];
      plan.add(at, id, model::predicted_fast(key),
               "GET /fast?x=" + std::to_string(key) + "&id=" + std::to_string(id) +
                   " HTTP/1.1\r\n\r\n");
    }
  }

  void add_echo(Plan& plan, std::uint64_t at) {
    const std::uint32_t id = next_id_++;
    plan.add(at, id, model::predicted_echo(id),
             "GET /echo?x=" + std::to_string(id) + " HTTP/1.1\r\n\r\n");
  }

  util::Rng rng_;
  bool redundant_;
  std::uint64_t tag_ = 1;
  std::uint32_t next_id_ = 1;
  std::vector<double> zipf_cdf_;
  std::vector<Key> zipf_keys_;
};

// ---------------------------------------------------------------------------
// Generator

struct PhaseResult {
  Counts counts;
  std::size_t completed = 0;  ///< answered as predicted
  std::vector<std::uint64_t> latency_ns;  ///< plan order; kFailed unless completed
  std::vector<std::uint64_t> lag_ns;      ///< send time − due time
  std::size_t backlog_max = 0;
  std::vector<std::size_t> backlog;  ///< see StepResult::backlog
  double wall_s = 0.0;  ///< phase start -> last response
  std::string first_wrong;

  [[nodiscard]] double achieved_rps() const {
    return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
};

class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { close_all(); }

  void disconnect() { close_all(); }

  /// Open kConnections connections, spread evenly over `loops` reactors.
  /// SO_REUSEPORT hashes each connection to a reactor, so plain connects
  /// put all four on one of two reactors one time in eight, and capacity
  /// then depends on the draw. The reactor that accepted a connection shows
  /// in the gateway.accepted{loop=i} counters; a connection to a reactor
  /// that already has its share is closed and dialled again.
  bool connect(std::uint16_t port, std::size_t loops, std::string* error) {
    close_all();
    port_ = port;
    loops_ = std::max<std::size_t>(loops, 1);
    placement_.assign(loops_, 0);
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) {
      *error = std::string{"epoll_create1: "} + std::strerror(errno);
      return false;
    }
    const std::size_t quota = (kConnections + loops_ - 1) / loops_;
    std::size_t placed = 0;
    for (int attempt = 0; placed < kConnections; ++attempt) {
      const std::vector<std::uint64_t> before = accepted_per_loop(loops_);
      const int fd = net::loopback::connect_loopback(port, error);
      if (fd < 0) return false;
      const std::size_t loop = loops_ > 1 ? accepting_loop(before) : 0;
      if (loop < loops_ && placement_[loop] >= quota && attempt < kDialAttempts) {
        ::close(fd);
        continue;
      }
      if (loop < loops_) ++placement_[loop];
      if (!adopt(placed++, fd, error)) return false;
    }
    return true;
  }

  /// Connections per reactor, as placed by the last connect().
  [[nodiscard]] const std::vector<std::size_t>& placement() const { return placement_; }

  /// Reconnect when a phase left a connection broken or with unanswered
  /// requests (their late answers would be taken for the next phase's).
  bool heal(std::string* error) {
    for (const Conn& c : conns_) {
      if (c.dead || !c.waiting.empty()) return connect(port_, loops_, error);
    }
    return true;
  }

  PhaseResult run(const Plan& plan, bool trace);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::deque<std::pair<std::uint32_t, std::size_t>> unsent;  ///< (index, end offset)
    std::string in;
    std::size_t in_off = 0;
    std::deque<std::uint32_t> waiting;  ///< plan indices, in send order
    bool want_write = false;
    bool dead = false;
  };

  static constexpr int kDialAttempts = 64;

  static std::vector<std::uint64_t> accepted_per_loop(std::size_t loops) {
    std::vector<std::uint64_t> out(loops, 0);
    constexpr std::string_view kKey = "gateway.accepted{loop=\"";
    for (const auto& [key, value] : obs::MetricsRegistry::instance().counter_totals()) {
      if (key.compare(0, kKey.size(), kKey) != 0) continue;
      const std::size_t loop = std::strtoul(key.c_str() + kKey.size(), nullptr, 10);
      if (loop < loops) out[loop] = value;
    }
    return out;
  }

  /// The reactor whose accept counter moved since `before`; loops_ when
  /// none did within 100 ms.
  [[nodiscard]] std::size_t accepting_loop(const std::vector<std::uint64_t>& before) const {
    for (int wait = 0; wait < 1000; ++wait) {
      const std::vector<std::uint64_t> now = accepted_per_loop(loops_);
      for (std::size_t i = 0; i < loops_; ++i) {
        if (now[i] > before[i]) return i;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return loops_;
  }

  bool adopt(std::size_t slot, int fd, std::string* error) {
    Conn& c = conns_[slot];
    c = Conn{};
    c.fd = fd;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(slot);
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      *error = std::string{"epoll_ctl: "} + std::strerror(errno);
      return false;
    }
    return true;
  }

  void close_all() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c = Conn{};
    }
    if (ep_ >= 0) ::close(ep_);
    ep_ = -1;
  }

  Conn* pick() {
    Conn* best = nullptr;
    for (std::size_t k = 0; k < kConnections; ++k) {
      Conn& c = conns_[(rr_ + k) % kConnections];
      if (c.dead) continue;
      if (best == nullptr || c.waiting.size() < best->waiting.size()) best = &c;
    }
    ++rr_;
    return best;
  }

  void set_write_interest(Conn& c, bool on) {
    if (c.want_write == on) return;
    c.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(&c - conns_);
    ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  /// Write what is buffered. A request counts as sent when the write that
  /// carries its last byte starts, so its send time never trails its
  /// arrival at the server.
  void flush(Conn& c, std::vector<std::uint64_t>& sent) {
    const std::uint64_t t = spans::now_ns();
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c.out_off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_write_interest(c, true);
        break;
      }
      c.dead = true;
      return;
    }
    while (!c.unsent.empty() && c.unsent.front().second <= c.out_off) {
      sent[c.unsent.front().first] = t;
      c.unsent.pop_front();
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
      set_write_interest(c, false);
    }
  }

  int ep_ = -1;
  std::uint16_t port_ = 0;
  std::size_t loops_ = 1;
  std::vector<std::size_t> placement_;
  std::size_t rr_ = 0;
  Conn conns_[kConnections];
};

PhaseResult Client::run(const Plan& plan, bool trace) {
  const std::size_t n = plan.size();
  PhaseResult res;
  res.latency_ns.assign(n, kFailed);
  res.lag_ns.assign(n, 0);
  std::vector<std::uint64_t> sent(n, 0);
  std::vector<Verdict> verdicts(n, Verdict::unanswered);
  const std::uint64_t t0 = spans::now_ns() + 200'000;
  const std::uint64_t last_due = t0 + (n != 0 ? plan.due.back() : 0);
  const std::uint64_t give_up = last_due + kDrainTimeoutNs;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::uint64_t last_done = t0;
  char buf[65536];
  epoll_event events[kConnections];

  auto settle = [&](std::uint32_t idx, std::uint64_t done, Verdict v) {
    --outstanding;
    verdicts[idx] = v;
    if (v != Verdict::ok) return;
    const std::uint64_t due = t0 + plan.due[idx];
    res.latency_ns[idx] = done - due;
    ++res.completed;
    last_done = std::max(last_done, done);
    if (trace) {
      spans::record(plan.id[idx], Name::gen_request, Route::none, due, done);
      spans::record(plan.id[idx], Name::gen_lag, Route::none, due, sent[idx]);
    }
  };
  auto kill = [&](Conn& c) {
    c.dead = true;
    while (!c.waiting.empty()) {
      settle(c.waiting.front(), 0, Verdict::unanswered);
      c.waiting.pop_front();
    }
  };

  for (;;) {
    const std::uint64_t now = spans::now_ns();
    while (next < n && t0 + plan.due[next] <= now) {
      Conn* c = pick();
      if (c == nullptr) {  // every connection is broken
        ++next;
        continue;
      }
      const std::string_view wire = plan.request(next);
      c->out.append(wire);
      c->unsent.emplace_back(static_cast<std::uint32_t>(next), c->out.size());
      c->waiting.push_back(static_cast<std::uint32_t>(next));
      ++next;
      ++outstanding;
    }
    for (Conn& c : conns_) {
      if (!c.dead && !c.want_write && c.out_off < c.out.size()) flush(c, sent);
      if (c.dead && !c.waiting.empty()) kill(c);
    }
    res.backlog_max = std::max(res.backlog_max, outstanding);
    while (res.backlog.size() < kBacklogSamples && n != 0 &&
           (next == n || now >= t0 + (last_due - t0) * (res.backlog.size() + 1) /
                                         kBacklogSamples)) {
      res.backlog.push_back(outstanding);
    }
    if (next == n && outstanding == 0) break;
    if (now >= give_up) break;
    const std::uint64_t wake = next < n ? t0 + plan.due[next] : give_up;
    timespec ts{0, 0};
    if (wake > now) {
      ts.tv_sec = static_cast<time_t>((wake - now) / 1'000'000'000);
      ts.tv_nsec = static_cast<long>((wake - now) % 1'000'000'000);
    }
    const int k = ::epoll_pwait2(ep_, events, kConnections, &ts, nullptr);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string{"epoll_pwait2: "} + std::strerror(errno));
    }
    for (int e = 0; e < k; ++e) {
      Conn& c = conns_[events[e].data.u32];
      if (c.dead) continue;
      if ((events[e].events & EPOLLOUT) != 0) flush(c, sent);
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      for (;;) {
        const ssize_t r = ::read(c.fd, buf, sizeof buf);
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r <= 0) {
          kill(c);
          break;
        }
        const std::uint64_t t_read = spans::now_ns();
        c.in.append(buf, static_cast<std::size_t>(r));
        for (;;) {
          const ParsedResponse p =
              parse_response(std::string_view{c.in}.substr(c.in_off));
          if (p.frame == Frame::incomplete) break;
          if (p.frame == Frame::bad || c.waiting.empty()) {
            kill(c);
            break;
          }
          const std::uint32_t idx = c.waiting.front();
          c.waiting.pop_front();
          const Verdict v = verdict(plan.want[idx], p.status, p.body);
          if (v == Verdict::wrong && res.first_wrong.empty()) {
            res.first_wrong = std::string{plan.request(idx)} + " -> " +
                              std::to_string(p.status) + " " + std::string{p.body};
          }
          settle(idx, t_read, v);
          c.in_off += p.consumed;
        }
        if (c.dead) break;
        if (c.in_off == c.in.size()) {
          c.in.clear();
          c.in_off = 0;
        }
      }
    }
  }
  res.counts = count(verdicts);
  for (std::size_t i = 0; i < n; ++i) {
    if (sent[i] != 0) res.lag_ns[i] = sent[i] - std::min(sent[i], t0 + plan.due[i]);
  }
  res.wall_s = static_cast<double>(last_done - t0) / 1e9;
  return res;
}

// ---------------------------------------------------------------------------
// Program counters, read as deltas around a window.

struct Counters {
  std::map<std::string, std::uint64_t> totals;  ///< summed over label shards
  obs::HistogramSnapshot request_ns;
  core::Metrics fast;
  core::CacheStatsSnapshot cache;

  [[nodiscard]] std::uint64_t operator[](const std::string& name) const {
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second;
  }
};

Counters read_counters(Routes& routes) {
  Counters c;
  auto& registry = obs::MetricsRegistry::instance();
  for (const auto& [key, value] : registry.counter_totals()) {
    c.totals[key.substr(0, key.find('{'))] += value;
  }
  for (const auto& [key, snap] : registry.histogram_snapshots()) {
    if (key.substr(0, key.find('{')) == "gateway.request_ns") c.request_ns.merge(snap);
  }
  std::lock_guard lock(routes.fast_m);
  c.fast = routes.fast.metrics();
  c.cache = routes.fast.cache()->stats();
  return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename T>
std::vector<T> sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Median of the p99s of `windows` consecutive slices (by due time), with
/// the count and beyond of the thinnest slice. Appends each slice's p99 (us)
/// to `slices` when given.
Percentile windowed_p99(const std::vector<std::uint64_t>& latency,
                        std::size_t windows, std::string* slices = nullptr) {
  std::vector<double> p99s;
  Percentile worst;
  const std::size_t slice = latency.size() / windows;
  for (std::size_t w = 0; w < windows && slice > 0; ++w) {
    std::vector<std::uint64_t> part(latency.begin() + static_cast<std::ptrdiff_t>(w * slice),
                                    latency.begin() + static_cast<std::ptrdiff_t>((w + 1) * slice));
    const Percentile p = percentile(sorted(std::move(part)), 99.0);
    p99s.push_back(p.value);
    if (slices != nullptr) *slices += format(" %.0f", p.value / 1e3);
    if (w == 0 || p.beyond < worst.beyond) worst = p;
  }
  Percentile out = worst;  // count and beyond of the thinnest slice
  out.value = median(std::move(p99s));
  return out;
}

struct Window {
  PhaseResult phase;
  Counters before, after;
  host::Usage proc0, proc1, gen0, gen1;
};

Window measure(Client& client, Routes& routes, const Plan& plan, bool trace) {
  Window w;
  w.before = read_counters(routes);
  w.proc0 = host::process_usage();
  w.gen0 = host::thread_usage();
  if (trace) spans::set_enabled(true);
  w.phase = client.run(plan, trace);
  spans::set_enabled(false);
  w.gen1 = host::thread_usage();
  w.proc1 = host::process_usage();
  w.after = read_counters(routes);
  return w;
}

/// Server CPU (process minus the generator thread) per completed request.
double cpu_us_per_req(const Window& w) {
  const double server = (w.proc1.cpu_us - w.proc0.cpu_us) - (w.gen1.cpu_us - w.gen0.cpu_us);
  return ratio(server, static_cast<double>(w.phase.completed));
}

/// Add a phase's requests to the run's counts (see Counts::failed for
/// `overload_expected`).
void account(RunResult& out, const PhaseResult& p, const char* phase,
             bool overload_expected = false) {
  out.attempted += p.counts.attempted;
  out.failed += p.counts.failed(overload_expected);
  if (p.counts.wrong != 0) {
    out.correct = false;
    out.notes.push_back(format("WRONG ANSWER in %s: %zu responses differ from the "
                               "prediction, first: %s",
                               phase, p.counts.wrong, p.first_wrong.c_str()));
  }
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  const bool redundant = options.workload == "serve_redundant";
  RunResult out;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise generator wake-ups
  util::ThreadPool& pool = util::ThreadPool::shared();
  Traffic traffic(options.seed, redundant);
  std::string error;

  // Set-up: pool up, routes and patterns built, gateway started,
  // connections open and answering. Repeated; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<net::Gateway> gateway;
  std::shared_ptr<Routes> routes;
  Client client;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // Tear the previous repeat down first: io_uring teardown alone takes
    // milliseconds and is not set-up.
    client.disconnect();
    gateway.reset();
    routes.reset();
    const std::uint64_t t0 = spans::now_ns();
    auto pool_probe = std::make_unique<util::ThreadPool>(pool.size());
    routes = std::make_shared<Routes>();
    gateway = std::make_unique<net::Gateway>();
    install_routes(*gateway, routes);
    if (!gateway->start()) throw std::runtime_error("gateway failed to start");
    if (!client.connect(gateway->port(), 1, &error)) throw std::runtime_error(error);
    const PhaseResult ready = client.run(traffic.ready_check(), false);
    setup_s.push_back(static_cast<double>(spans::now_ns() - t0) / 1e9);
    pool_probe.reset();
    account(out, ready, "set-up");
    if (ready.counts.failed() != 0) throw std::runtime_error("readiness check failed");
  }
  out.values["setup_s"] = median(setup_s);
  std::string reps;
  for (const double t : setup_s) reps += format(" %.2f", t * 1e3);
  out.notes.push_back("set-up repeats (ms):" + reps);
  out.host_json = host::fingerprint_json(
      {pool.size(), gateway->loops(),
       net::EventLoop::backend_name(gateway->backend())});
  if (!client.connect(gateway->port(), gateway->loops(), &error)) {
    throw std::runtime_error(error);
  }
  std::string placement;
  for (const std::size_t n : client.placement()) placement += format(" %zu", n);
  out.notes.push_back("connections per reactor:" + placement);

  // The generator runs on the last CPU, apart from the reactors (which pin
  // themselves from CPU 0 up); pinned only now so that no thread created
  // during set-up inherits the mask.
  util::pin_current_thread_to_cpu(std::thread::hardware_concurrency() - 1);
  account(out, client.run(traffic.make(kFixedRps, kWarmupSeconds), false),
          "warm-up");
  if (!client.heal(&error)) throw std::runtime_error(error);

  const double window_s = options.seconds / 2.0;
  // A window in which the generator lost its schedule measured the
  // generator, not the program (another process took its CPU): it is
  // discarded and measured again, up to kWindowAttempts times in all.
  Window fixed;
  Percentile lag99;
  bool valid = false;
  for (int attempt = 1; !valid && attempt <= kWindowAttempts; ++attempt) {
    if (!client.heal(&error)) throw std::runtime_error(error);
    fixed = measure(client, *routes, traffic.make(kFixedRps, window_s), false);
    account(out, fixed.phase, "fixed-rate window");
    // Peak RSS is read after the first window: later windows and the
    // ladder allocate request plans of their own (the benchmark's memory,
    // not the program's), and the ladder's grow with the rate it reaches.
    if (attempt == 1) out.values["rss_peak_mb"] = host::rss_peak_mb();
    lag99 = windowed_p99(fixed.phase.lag_ns, kSubWindows);
    valid = generator_kept_up(lag99.value / 1e3, fixed.phase.backlog_max,
                              kGeneratorLimits);
    if (!valid) {
      out.notes.push_back(format(
          "fixed-rate window %d discarded: generator lag p99 %.1f us, backlog "
          "max %zu (limits %.0f us, %zu)",
          attempt, lag99.value / 1e3, fixed.phase.backlog_max,
          kGeneratorLimits.lag_us_p99, kGeneratorLimits.backlog_max));
    }
  }
  const std::vector<std::uint64_t> lat = sorted(fixed.phase.latency_ns);
  const Percentile p50 = percentile(lat, 50.0);
  std::string slices;
  const Percentile p99 = windowed_p99(fixed.phase.latency_ns, kSubWindows, &slices);
  out.notes.push_back("p99 per slice (us):" + slices);
  out.notes.push_back(format("generator CPU %.1f us per request",
                             ratio(fixed.gen1.cpu_us - fixed.gen0.cpu_us,
                                   static_cast<double>(fixed.phase.completed))));
  out.notes.push_back(format(
      "fixed rate %.0f req/s for %.1f s: %zu requests, %zu failed, achieved %.0f "
      "req/s; p50 %.1f us over %zu samples; p99 %.1f us (median of %zu slices, "
      ">= %zu samples beyond each); generator lag p99 %.1f us, backlog max %zu",
      kFixedRps, window_s, fixed.phase.counts.attempted,
      fixed.phase.counts.failed(), fixed.phase.achieved_rps(), p50.value / 1e3,
      p50.count, p99.value / 1e3, kSubWindows, p99.beyond, lag99.value / 1e3,
      fixed.phase.backlog_max));
  if (!valid || fixed.phase.counts.failed() != 0 || !resolvable(p99)) {
    out.valid = false;
    out.notes.push_back("INVALID: the fixed-rate window failed requests, lost its "
                        "schedule, or has too few samples for p99");
  }
  out.values["p50_us"] = p50.value / 1e3;
  out.values["p99_us"] = p99.value / 1e3;
  out.values["cpu_us_per_req"] = cpu_us_per_req(fixed);

  if (!options.trace) {
    // Rate ladder in the remaining half of the run.
    const double step_s = std::clamp(window_s / 14.0, 0.4, 2.0);
    const std::uint64_t ladder_end =
        spans::now_ns() + static_cast<std::uint64_t>(window_s * 1e9);
    Ladder ladder(kLadderStartRps);
    int discarded = 0;  // consecutive discarded steps at the current rung
    while (!ladder.done() &&
           spans::now_ns() + static_cast<std::uint64_t>(step_s * 1.2e9) < ladder_end) {
      const double rate = ladder.next_rate();
      const PhaseResult r = client.run(traffic.make(rate, step_s), false);
      account(out, r, "ladder step", true);
      StepResult step;
      step.achieved_rps = r.achieved_rps();
      step.attempted = r.counts.attempted;
      step.failed = r.counts.failed();
      step.p99_us = step.failed != 0 ? std::numeric_limits<double>::infinity()
                                  : windowed_p99(r.latency_ns, kStepSlices).value / 1e3;
      step.backlog = r.backlog;
      // Like a fixed-rate window, a step in which the generator lost its
      // schedule measured the host, not the server: it is run again, and
      // judged anyway on the kWindowAttempts-th try in a row.
      const double lag_us = windowed_p99(r.lag_ns, kStepSlices).value / 1e3;
      const bool judged =
          lag_us <= kGeneratorLimits.lag_us_p99 || ++discarded >= kWindowAttempts;
      const char* outcome = "discarded, the generator fell behind";
      if (judged) {
        discarded = 0;
        ladder.report(step, kP99LimitUs);
        outcome = step_passes(step, kP99LimitUs) ? "pass" : "fail";
      }
      out.notes.push_back(format(
          "ladder step %.0f req/s: achieved %.0f, p99 %.1f us (limit %.0f), failed "
          "%zu, backlog %zu -> %zu, generator lag p99 %.1f us: %s",
          rate, step.achieved_rps, step.p99_us, kP99LimitUs, step.failed,
          r.backlog.empty() ? 0 : r.backlog.front(), r.backlog.empty() ? 0 : r.backlog.back(),
          lag_us, outcome));
      if (!client.heal(&error)) throw std::runtime_error(error);
    }
    if (!ladder.done()) out.notes.push_back("ladder stopped by the time budget");
    out.values["max_rate_rps"] = ladder.max_rate();
    if (ladder.max_rate() <= 0.0) {
      out.valid = false;
      out.notes.push_back("INVALID: no ladder step met the limits");
    }
  } else {
    // Traced window at the same rate; per-layer figures come from it.
    const Window traced = measure(client, *routes, traffic.make(kFixedRps, window_s), true);
    account(out, traced.phase, "traced window");
    const std::vector<spans::Span> recorded = spans::drain();
    const std::string path = options.out_dir + "/" + options.workload + ".trace.jsonl";
    if (!spans::write_jsonl(path, recorded, kJsonlRequests)) {
      out.notes.push_back("could not write " + path);
    }
    spans::Summary s = spans::summarize(recorded);
    spans::sort_samples(s);
    out.notes.push_back(format("%zu spans of %zu requests written to %s",
                               recorded.size(), s.requests, path.c_str()));

    const Counters& a = traced.before;
    const Counters& b = traced.after;
    const double responses = static_cast<double>(b["gateway.responses"] - a["gateway.responses"]);
    const double completed = static_cast<double>(traced.phase.completed);
    auto& v = out.values;
    const Percentile tlag = percentile(sorted(traced.phase.lag_ns), 99.0);
    v["gen.lag_us_p99"] = tlag.value / 1e3;
    v["gen.backlog_max"] = static_cast<double>(traced.phase.backlog_max);
    v["net.inbound_us_p50"] = percentile(s.inbound_us, 50.0).value;
    v["net.inbound_us_p99"] = percentile(s.inbound_us, 99.0).value;
    v["net.outbound_us_p50"] = percentile(s.outbound_us, 50.0).value;
    v["net.outbound_us_p99"] = percentile(s.outbound_us, 99.0).value;
    v["net.server_us_p50"] = b.request_ns.diff(a.request_ns).percentile(50.0) / 1e3;
    v["net.sends_per_response"] = ratio(static_cast<double>(b["gateway.sends"] - a["gateway.sends"]), responses);
    if (gateway->backend() == net::EventLoop::Backend::uring) {
      v["net.enters_per_response"] = ratio(static_cast<double>(b["gateway.enters"] - a["gateway.enters"]), responses);
    }
    std::uint64_t errors = 0;
    for (const char* name : {"gateway.bad_requests", "gateway.shed_connections",
                             "gateway.shed_inflight", "gateway.timeouts_idle",
                             "gateway.timeouts_write", "gateway.orphan_responses"}) {
      errors += b[name] - a[name];
    }
    v["net.errors"] = static_cast<double>(errors);
    v["proc.ctx_switches_per_req"] = ratio(
        static_cast<double>(traced.proc1.switches - traced.proc0.switches), completed);
    v["trace.overhead_share"] = overhead_share(
        percentile(sorted(traced.phase.latency_ns), 50.0).value, p50.value);
    v["trace.untiled_share"] = untiled_share(s.untiled, s.requests);
    if (v["trace.untiled_share"] > kMaxUntiledShare) {
      out.correct = false;
      out.notes.push_back(format("TILING FAILED: %zu of %zu traced requests lack a "
                                 "stage span or have one out of order",
                                 s.untiled, s.requests));
    }
    if (redundant) {
      v["pool.fanout_us_p50"] = percentile(s.fanout_us, 50.0).value;
      v["pool.fanout_us_p99"] = percentile(s.fanout_us, 99.0).value;
      v["core.route_lock_wait_us_p99"] = percentile(s.lock_wait_us, 99.0).value;
      v["core.vote_run_us_p50"] = percentile(s.vote_run_us, 50.0).value;
      v["core.vote_run_us_p99"] = percentile(s.vote_run_us, 99.0).value;
      v["core.voter_ns_p50"] = percentile(s.voter_ns, 50.0).value;
      v["core.variant_ns_p50"] = percentile(s.variant_ns, 50.0).value;
      v["core.fast_run_us_p50"] = percentile(s.fast_run_us, 50.0).value;
      v["core.fast_run_us_p99"] = percentile(s.fast_run_us, 99.0).value;
      const core::Metrics& f0 = a.fast;
      const core::Metrics& f1 = b.fast;
      v["core.fast_execs_per_req"] = ratio(
          static_cast<double>(f1.variant_executions - f0.variant_executions),
          static_cast<double>(f1.requests - f0.requests));
      const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
      const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
      v["core.hedges_per_miss"] = ratio(
          static_cast<double>(f1.hedged_launches - f0.hedged_launches), misses);
      v["core.cache_hit_ratio"] = ratio(hits, hits + misses);
      v["core.cache_evictions_per_miss"] =
          ratio(static_cast<double>(b.cache.evictions - a.cache.evictions), misses);
      v["core.cache_coalesced"] = static_cast<double>(b.cache.coalesced - a.cache.coalesced);
    }
    put_self_times(out, s.self_us);

    // Isolated probes on the workload's exact inputs.
    const Plan sample = traffic.make(kFixedRps, 0.25);
    std::vector<std::string> wire;
    std::vector<Key> vote_keys;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      wire.emplace_back(sample.request(i));
      const auto q = wire.back().find("/vote?x=");
      if (q != std::string::npos) {
        vote_keys.push_back(std::stoull(wire.back().substr(q + 8)));
      }
    }
    v["net.parse_ns_p50"] = probe_parse_ns(wire);
    v["pool.batch3_external_ns_p50"] = probe_batch3_external_ns();
    v["pool.batch3_worker_ns_p50"] = probe_batch3_worker_ns();
    if (redundant) {
      v["core.voter_probe_ns_p50"] = probe_voter_ns(vote_keys);
      v["core.cache_hit_ns_p50"] = probe_cache_hit_ns(vote_keys.empty() ? 1 : vote_keys.front());
    }
  }

  gateway->stop();
  return out;
}

}  // namespace perfbench
