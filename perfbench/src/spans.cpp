#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::spans {

namespace {

constexpr std::size_t kNames = 8;

/// One thread's spans. The mutex is uncontended while recording; it gives
/// drain() a happens-before edge with every record() (the reply that tells
/// the generator a handler finished travels through the kernel, which the
/// memory model does not count).
struct Buffer {
  std::mutex mutex;
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
/// Buffers outlive the threads that filled them (pool workers run until
/// process exit), so the registry owns them and is never destroyed.
std::vector<std::unique_ptr<Buffer>>& buffers() {
  static auto* all = new std::vector<std::unique_ptr<Buffer>>();
  return *all;
}

thread_local Buffer* t_buffer = nullptr;

constexpr const char* kNameText[kNames] = {
    "gen.request",   "gen.lag",   "route.handler", "route.lock_wait",
    "core.run",      "core.variant", "core.voter", "campaign.system"};

}  // namespace

const char* name_of(Name name) {
  return kNameText[static_cast<std::size_t>(name)];
}

const char* parent_of(Name name) {
  switch (name) {
    case Name::gen_request:
    case Name::campaign_system:
      return nullptr;
    case Name::gen_lag:
    case Name::route_handler:
      return "gen.request";
    case Name::route_lock_wait:
    case Name::core_run:
      return "route.handler";
    case Name::core_variant:
    case Name::core_voter:
      return "core.run";  // campaign.system in the campaign workload
  }
  return nullptr;
}

const char* route_of(Route route) {
  switch (route) {
    case Route::none: return "";
    case Route::echo: return "echo";
    case Route::vote: return "vote";
    case Route::fast: return "fast";
  }
  return "";
}

void record(const Span& span) {
  if (t_buffer == nullptr) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(1 << 14);
    t_buffer = fresh.get();
    std::lock_guard lock(g_buffers_mutex);
    buffers().push_back(std::move(fresh));
  }
  std::lock_guard lock(t_buffer->mutex);
  t_buffer->spans.push_back(span);
}

std::vector<Span> drain() {
  std::vector<Span> out;
  std::lock_guard lock(g_buffers_mutex);
  for (auto& b : buffers()) {
    std::lock_guard buffer_lock(b->mutex);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

bool write_jsonl(const std::string& path, const std::vector<Span>& spans,
                 std::size_t max_requests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint32_t lo = spans.empty() ? 0 : spans.front().id;
  for (const Span& s : spans) lo = std::min(lo, s.id);
  for (const Span& s : spans) {
    if (s.id - lo >= max_requests) continue;
    const char* parent = parent_of(s.name);
    if (s.name == Name::core_variant || s.name == Name::core_voter) {
      if (s.route == Route::none) parent = "campaign.system";
    }
    std::fprintf(f,
                 "{\"id\":%u,\"name\":\"%s\",\"parent\":%s%s%s,"
                 "\"route\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.id, name_of(s.name), parent ? "\"" : "",
                 parent ? parent : "null", parent ? "\"" : "",
                 route_of(s.route), static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
  return std::fclose(f) == 0;
}

namespace {

/// Every span of one request, joined by id.
struct Joined {
  Interval root, lag, handler, lock, run, voter, system;
  Interval variant[3];
  std::uint8_t variants = 0;
  std::uint8_t have = 0;  ///< bit per Name
  Route route = Route::none;

  [[nodiscard]] bool has(Name n) const {
    return (have & (1u << static_cast<unsigned>(n))) != 0;
  }
};

std::uint64_t length(Interval i) { return i.end > i.start ? i.end - i.start : 0; }

}  // namespace

Summary summarize(const std::vector<Span>& spans) {
  Summary out;
  out.self_us.assign(kNames, 0.0);
  if (spans.empty()) return out;
  std::uint32_t lo = spans.front().id;
  std::uint32_t hi = lo;
  for (const Span& s : spans) {
    lo = std::min(lo, s.id);
    hi = std::max(hi, s.id);
  }
  std::vector<Joined> joined(static_cast<std::size_t>(hi - lo) + 1);
  for (const Span& s : spans) {
    Joined& j = joined[s.id - lo];
    const Interval iv{s.start, s.end};
    j.have |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(s.name));
    switch (s.name) {
      case Name::gen_request: j.root = iv; break;
      case Name::gen_lag: j.lag = iv; break;
      case Name::route_handler: j.handler = iv; j.route = s.route; break;
      case Name::route_lock_wait: j.lock = iv; break;
      case Name::core_run: j.run = iv; j.route = s.route; break;
      case Name::core_voter: j.voter = iv; break;
      case Name::campaign_system: j.system = iv; break;
      case Name::core_variant:
        if (j.variants < 3) j.variant[j.variants++] = iv;
        break;
    }
  }

  std::vector<double> self_sum(kNames, 0.0);
  std::vector<std::size_t> self_n(kNames, 0);
  auto add_self = [&](Name n, std::uint64_t ns) {
    self_sum[static_cast<std::size_t>(n)] += static_cast<double>(ns);
    ++self_n[static_cast<std::size_t>(n)];
  };

  for (const Joined& j : joined) {
    if (j.have == 0) continue;
    std::vector<Interval> fan(j.variant, j.variant + j.variants);
    std::uint64_t slowest = 0;
    for (const Interval& v : fan) {
      out.variant_ns.push_back(static_cast<double>(length(v)));
      slowest = std::max(slowest, length(v));
      add_self(Name::core_variant, length(v));
    }
    if (j.has(Name::core_voter)) {
      out.voter_ns.push_back(static_cast<double>(length(j.voter)));
      add_self(Name::core_voter, length(j.voter));
      fan.push_back(j.voter);
    }
    if (j.has(Name::route_lock_wait)) {
      out.lock_wait_us.push_back(static_cast<double>(length(j.lock)) / 1e3);
      add_self(Name::route_lock_wait, length(j.lock));
    }
    if (j.has(Name::core_run)) {
      const double us = static_cast<double>(length(j.run)) / 1e3;
      if (j.route == Route::vote) out.vote_run_us.push_back(us);
      if (j.route == Route::fast) out.fast_run_us.push_back(us);
      add_self(Name::core_run, self_time(j.run, fan));
    }
    if (j.has(Name::campaign_system)) {
      out.system_ns.push_back(static_cast<double>(length(j.system)));
      add_self(Name::campaign_system, self_time(j.system, fan));
    }
    // Pool fan-out: the part of a voted run that is neither the slowest
    // variant nor the voter.
    const Interval* whole = nullptr;
    if (j.has(Name::core_run) && j.route == Route::vote) whole = &j.run;
    if (j.has(Name::campaign_system)) whole = &j.system;
    if (whole != nullptr && j.variants == 3 && j.has(Name::core_voter)) {
      const double all = static_cast<double>(length(*whole));
      const double work =
          static_cast<double>(slowest) + static_cast<double>(length(j.voter));
      out.fanout_us.push_back(std::max(0.0, all - work) / 1e3);
      out.fanout_whole_ns += all;
      out.fanout_work_ns += work;
    }
    if (j.has(Name::route_handler)) {
      std::vector<Interval> kids;
      if (j.has(Name::route_lock_wait)) kids.push_back(j.lock);
      if (j.has(Name::core_run)) kids.push_back(j.run);
      add_self(Name::route_handler, self_time(j.handler, kids));
    }
    if (j.has(Name::gen_lag)) add_self(Name::gen_lag, length(j.lag));
    if (j.has(Name::gen_request)) {
      ++out.requests;
      std::vector<Interval> kids;
      if (j.has(Name::gen_lag)) kids.push_back(j.lag);
      if (j.has(Name::route_handler)) kids.push_back(j.handler);
      add_self(Name::gen_request, self_time(j.root, kids));
    }
    // Tiling: due -> sent -> handler entry -> handler exit -> last byte.
    // Consecutive stages sum to the root by construction, so what can fail
    // is the join: a stage span that is missing or out of order.
    if (j.has(Name::gen_request)) {
      const bool tiled =
          j.has(Name::gen_lag) && j.has(Name::route_handler) &&
          j.root.start <= j.lag.end && j.lag.end <= j.handler.start &&
          j.handler.start <= j.handler.end && j.handler.end <= j.root.end;
      if (tiled) {
        out.inbound_us.push_back(static_cast<double>(j.handler.start - j.lag.end) / 1e3);
        out.outbound_us.push_back(static_cast<double>(j.root.end - j.handler.end) / 1e3);
      } else {
        ++out.untiled;
      }
    }
  }
  for (std::size_t n = 0; n < kNames; ++n) {
    out.self_us[n] = self_n[n] ? self_sum[n] / static_cast<double>(self_n[n]) / 1e3 : 0.0;
  }
  return out;
}

void sort_samples(Summary& s) {
  for (auto* v : {&s.inbound_us, &s.outbound_us,
                  &s.lock_wait_us, &s.vote_run_us, &s.fast_run_us,
                  &s.variant_ns, &s.voter_ns, &s.fanout_us, &s.system_ns}) {
    std::sort(v->begin(), v->end());
  }
}

}  // namespace perfbench::spans
