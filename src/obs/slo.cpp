#include "obs/slo.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/obs.hpp"

namespace redundancy::obs {

namespace {

/// The window spans reported by snapshot_jsonl and the window gauges.
struct NamedWindow {
  const char* name;
  std::uint64_t span_ns;
};
constexpr NamedWindow kWindows[] = {
    {"10s", 10'000'000'000ull},
    {"1m", 60'000'000'000ull},
    {"5m", 300'000'000'000ull},
    {"1h", 3'600'000'000'000ull},
};

double error_rate(std::uint64_t errors, std::uint64_t total) noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(errors) / static_cast<double>(total);
}

/// Fraction of the error budget consumed per unit of traffic, normalised so
/// 1.0 = "burning exactly the budget". Zero traffic burns nothing.
double burn_rate(std::uint64_t errors, std::uint64_t total,
                 double availability) noexcept {
  const double budget = 1.0 - availability;
  if (budget <= 0.0) return errors > 0 ? 1e9 : 0.0;  // zero-budget target
  return error_rate(errors, total) / budget;
}

/// JSON number formatting for the NDJSON snapshot (%.6g keeps ratios
/// readable and round-trips through the flat parser's strtod).
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string json_escape_view(std::string_view s) {
  return json_escape(std::string(s));
}

}  // namespace

const char* to_string(SloState state) noexcept {
  switch (state) {
    case SloState::ok: return "ok";
    case SloState::degraded: return "degraded";
    case SloState::failing: return "failing";
  }
  return "ok";
}

std::string HealthReport::text() const {
  std::string out = std::string{"status: "} + to_string(status) + "\n";
  for (const HealthRow& row : rows) {
    out += row.name + ": " + to_string(row.state);
    out += " requests=" + std::to_string(row.requests);
    if (row.name.rfind("slo:", 0) == 0) {
      out += " errors=" + std::to_string(row.errors);
    } else {
      out += " recoveries=" + std::to_string(row.recoveries);
      out += " unrecovered=" + std::to_string(row.errors);
    }
    char rate[32];
    std::snprintf(rate, sizeof rate, " error_rate=%.4f\n",
                  error_rate(row.errors, row.requests));
    out += rate;
  }
  return out;
}

SloTracker::TechniqueWindows::TechniqueWindows(const std::string& technique,
                                               WindowOptions options,
                                               bool count_history)
    : requests(counter(TechniqueCounters::kRequests, technique), options,
               count_history),
      recoveries(counter(TechniqueCounters::kRecoveries, technique), options,
                 count_history),
      unrecovered(counter(TechniqueCounters::kUnrecovered, technique),
                  options, count_history) {}

SloTracker::SloTracker() : SloTracker(Options{}) {}

SloTracker::SloTracker(Options options) : options_(options) {
  if (options_.epoch_ns == 0) options_.epoch_ns = Options{}.epoch_ns;
  if (options_.slots == 0) options_.slots = Options{}.slots;
  // Verdicts counted before the tracker existed belong to no window.
  discover_techniques_locked(/*count_history=*/false);
}

SloTracker::~SloTracker() { stop(); }

SloTracker::ClassState* SloTracker::find_locked(
    std::string_view request_class) {
  for (auto& c : classes_) {
    if (c->name == request_class) return c.get();
  }
  return nullptr;
}

const SloTracker::ClassState* SloTracker::find_locked(
    std::string_view request_class) const {
  for (const auto& c : classes_) {
    if (c->name == request_class) return c.get();
  }
  return nullptr;
}

SloTracker::ClassState& SloTracker::class_locked(
    std::string_view request_class, SloTarget target) {
  if (ClassState* existing = find_locked(request_class)) return *existing;
  auto state = std::make_unique<ClassState>();
  state->name.assign(request_class);
  state->target = target;
  // Cumulative series live in the global registry so /metrics always
  // carries the per-class ground truth next to everything else.
  auto& reg = MetricsRegistry::instance();
  state->requests = &reg.counter("slo.requests", state->name);
  state->errors = &reg.counter("slo.errors", state->name);
  state->latency = &reg.histogram("slo.latency_ns", state->name);
  const WindowOptions wopts{options_.epoch_ns, options_.slots};
  state->w_requests =
      std::make_unique<WindowedCounter>(*state->requests, wopts);
  state->w_errors = std::make_unique<WindowedCounter>(*state->errors, wopts);
  state->w_latency =
      std::make_unique<WindowedHistogram>(*state->latency, wopts);
  classes_.push_back(std::move(state));
  return *classes_.back();
}

void SloTracker::discover_techniques_locked(bool count_history) {
  const WindowOptions wopts{options_.epoch_ns, options_.slots};
  for (const std::string& technique :
       MetricsRegistry::instance().counter_labels(
           TechniqueCounters::kRequests)) {
    techniques_.try_emplace(technique, technique, wopts, count_history);
  }
}

void SloTracker::register_class(std::string_view request_class,
                                SloTarget target) {
  std::unique_lock lock(mutex_);
  class_locked(request_class, target).target = target;
}

void SloTracker::score(ClassState& c, std::uint64_t latency_ns, bool ok) {
  // ClassState pointers are stable once registered (unique_ptr elements),
  // so scoring runs unlocked: the metric updates are the lock-free sharded
  // hot path.
  c.requests->add(1);
  if (!ok || latency_ns > c.target.latency_slo_ns) c.errors->add(1);
  c.latency->record(latency_ns);
}

void SloTracker::observe(std::string_view request_class,
                         std::uint64_t latency_ns, bool ok) {
  ClassState* state = nullptr;
  {
    std::shared_lock lock(mutex_);
    state = find_locked(request_class);
  }
  if (state == nullptr) {
    std::unique_lock lock(mutex_);
    state = &class_locked(request_class, kDefaultTarget);
  }
  score(*state, latency_ns, ok);
}

void SloTracker::on_span(const SpanRecord& span) {
  // Spans only score *registered* classes: span names are an open set
  // (variant, shard, ...) and registering all of them would turn every
  // span family into an SLO class.
  ClassState* state = nullptr;
  {
    std::shared_lock lock(mutex_);
    state = find_locked(span.name);
  }
  if (state != nullptr) score(*state, span.duration_ns(), span.ok);
}

void SloTracker::tick(std::uint64_t now_ns) {
  std::vector<std::pair<std::string, std::string>> breaches;
  BreachCallback breach_cb;
  {
    std::unique_lock lock(mutex_);
    breach_cb = breach_cb_;
    discover_techniques_locked(/*count_history=*/true);
    for (auto& [name, t] : techniques_) {
      t.requests.rotate(now_ns);
      t.recoveries.rotate(now_ns);
      t.unrecovered.rotate(now_ns);
    }
    auto& reg = MetricsRegistry::instance();
    for (auto& c : classes_) {
      c->w_requests->rotate(now_ns);
      c->w_errors->rotate(now_ns);
      c->w_latency->rotate(now_ns);

      // Windowed gauges: burn/error/latency per named window.
      for (const NamedWindow& w : kWindows) {
        const std::uint64_t total = c->w_requests->window(w.span_ns, now_ns);
        const std::uint64_t errors = c->w_errors->window(w.span_ns, now_ns);
        const HistogramSnapshot lat = c->w_latency->window(w.span_ns, now_ns);
        reg.gauge(std::string("slo.burn_rate_") + w.name, c->name)
            .set(burn_rate(errors, total, c->target.availability));
        reg.gauge(std::string("slo.error_ratio_") + w.name, c->name)
            .set(error_rate(errors, total));
        reg.gauge(std::string("slo.p99_ns_") + w.name, c->name)
            .set(lat.percentile(99.0));
      }

      // Cumulative error-budget accounting since process start.
      const std::uint64_t total_all = c->requests->total();
      const std::uint64_t errors_all = c->errors->total();
      const double allowed =
          static_cast<double>(total_all) * (1.0 - c->target.availability);
      const double remaining =
          allowed <= 0.0
              ? (errors_all > 0 ? 0.0 : 1.0)
              : std::max(0.0, 1.0 - static_cast<double>(errors_all) / allowed);
      reg.gauge("slo.budget_remaining_ratio", c->name).set(remaining);

      // Multi-window burn-rate rules.
      bool any_page = false, any_ticket = false;
      for (std::size_t r = 0; r < std::size(kBurnRules); ++r) {
        const BurnRule& rule = kBurnRules[r];
        const double burn_long =
            burn_rate(c->w_errors->window(rule.long_ns, now_ns),
                      c->w_requests->window(rule.long_ns, now_ns),
                      c->target.availability);
        const double burn_short =
            burn_rate(c->w_errors->window(rule.short_ns, now_ns),
                      c->w_requests->window(rule.short_ns, now_ns),
                      c->target.availability);
        const bool firing =
            burn_long >= rule.threshold && burn_short >= rule.threshold;
        c->rule_firing[r] = firing;
        if (firing) (rule.page ? any_page : any_ticket) = true;
      }
      const SloState next = any_page     ? SloState::failing
                            : any_ticket ? SloState::degraded
                                         : SloState::ok;
      if (next == SloState::failing && c->state != SloState::failing) {
        for (std::size_t r = 0; r < std::size(kBurnRules); ++r) {
          if (c->rule_firing[r] && kBurnRules[r].page) {
            breaches.emplace_back(c->name, kBurnRules[r].name);
          }
        }
      }
      if (next != c->state) {
        c->state = next;
        c->last_transition_ns = now_ns;
      }
    }
  }
  // The breach callback typically ends in a flight dump, which should not
  // nest under the tracker lock.
  if (breach_cb) {
    for (const auto& [cls, rule] : breaches) breach_cb(cls, rule);
  }
}

std::string SloTracker::snapshot_jsonl(std::uint64_t now_ns) const {
  std::ostringstream out;
  std::shared_lock lock(mutex_);
  for (const auto& c : classes_) {
    const std::uint64_t total_all = c->requests->total();
    const std::uint64_t errors_all = c->errors->total();
    for (const NamedWindow& w : kWindows) {
      const std::uint64_t total = c->w_requests->window(w.span_ns, now_ns);
      const std::uint64_t errors = c->w_errors->window(w.span_ns, now_ns);
      const HistogramSnapshot lat = c->w_latency->window(w.span_ns, now_ns);
      out << "{\"type\":\"slo_window\",\"class\":\""
          << json_escape_view(c->name) << "\",\"window\":\"" << w.name
          << "\",\"window_s\":" << w.span_ns / 1'000'000'000ull
          << ",\"total\":" << total << ",\"errors\":" << errors
          << ",\"error_rate\":" << json_double(error_rate(errors, total))
          << ",\"burn_rate\":"
          << json_double(burn_rate(errors, total, c->target.availability))
          << ",\"p50_ns\":" << json_double(lat.percentile(50.0))
          << ",\"p95_ns\":" << json_double(lat.percentile(95.0))
          << ",\"p99_ns\":" << json_double(lat.percentile(99.0)) << "}\n";
    }
    const double allowed =
        static_cast<double>(total_all) * (1.0 - c->target.availability);
    out << "{\"type\":\"slo_class\",\"class\":\"" << json_escape_view(c->name)
        << "\",\"latency_slo_ns\":" << c->target.latency_slo_ns
        << ",\"availability\":" << json_double(c->target.availability)
        << ",\"state\":\"" << to_string(c->state)
        << "\",\"total\":" << total_all << ",\"errors\":" << errors_all
        << ",\"budget_allowed\":" << json_double(allowed)
        << ",\"budget_consumed\":"
        << json_double(allowed <= 0.0
                           ? (errors_all > 0 ? 1.0 : 0.0)
                           : static_cast<double>(errors_all) / allowed)
        << ",\"last_transition_ns\":" << c->last_transition_ns;
    for (std::size_t r = 0; r < std::size(kBurnRules); ++r) {
      out << ",\"alert_" << kBurnRules[r].name
          << "\":" << (c->rule_firing[r] ? "true" : "false");
    }
    out << "}\n";
  }
  return out.str();
}

SloState SloTracker::state(std::string_view request_class) const {
  std::shared_lock lock(mutex_);
  const ClassState* c = find_locked(request_class);
  return c == nullptr ? SloState::ok : c->state;
}

HealthReport SloTracker::health(std::uint64_t now_ns) {
  constexpr std::uint64_t kSpan = kWindows[0].span_ns;  // the 10s window
  HealthReport report;
  std::unique_lock lock(mutex_);
  discover_techniques_locked(/*count_history=*/true);
  for (const auto& [name, t] : techniques_) {
    HealthRow row{name};
    row.requests = t.requests.window(kSpan, now_ns);
    row.recoveries = t.recoveries.window(kSpan, now_ns);
    row.errors = t.unrecovered.window(kSpan, now_ns);
    row.state = row.errors > 0       ? SloState::failing
                : row.recoveries > 0 ? SloState::degraded
                                     : SloState::ok;
    report.rows.push_back(std::move(row));
  }
  for (const auto& c : classes_) {
    HealthRow row{"slo:" + c->name, c->state};
    row.requests = c->w_requests->window(kSpan, now_ns);
    row.errors = c->w_errors->window(kSpan, now_ns);
    report.rows.push_back(std::move(row));
  }
  for (const HealthRow& row : report.rows) {
    report.status = std::max(report.status, row.state);
  }
  return report;
}

void SloTracker::set_breach_callback(BreachCallback cb) {
  std::unique_lock lock(mutex_);
  breach_cb_ = std::move(cb);
}

void SloTracker::start(std::uint64_t epoch_override_ns) {
  std::unique_lock lock(run_mutex_);
  if (running_) return;
  running_ = true;
  const std::uint64_t epoch =
      epoch_override_ns != 0 ? epoch_override_ns : options_.epoch_ns;
  rotator_ = std::thread([this, epoch] {
    std::unique_lock lk(run_mutex_);
    while (running_) {
      if (run_cv_.wait_for(lk, std::chrono::nanoseconds(epoch),
                           [this] { return !running_; })) {
        break;
      }
      lk.unlock();
      tick(now_ns());
      lk.lock();
    }
  });
}

void SloTracker::stop() {
  {
    std::unique_lock lock(run_mutex_);
    if (!running_) return;
    running_ = false;
  }
  run_cv_.notify_all();
  if (rotator_.joinable()) rotator_.join();
}

std::vector<std::pair<std::string, SloTarget>> parse_slo_targets(
    const char* spec) {
  std::vector<std::pair<std::string, SloTarget>> out;
  if (spec == nullptr || *spec == '\0') return out;
  std::string s{spec};
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string entry = s.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    // class=latency_ms@availability_pct, e.g. "/fast=5@99.9"
    const std::size_t eq = entry.find('=');
    const std::size_t at = entry.find('@', eq == std::string::npos ? 0 : eq);
    bool valid = eq != std::string::npos && at != std::string::npos &&
                 eq > 0 && at > eq + 1 && at + 1 < entry.size();
    double latency_ms = 0.0, availability_pct = 0.0;
    if (valid) {
      char* end = nullptr;
      const std::string ms = entry.substr(eq + 1, at - eq - 1);
      latency_ms = std::strtod(ms.c_str(), &end);
      valid = end != nullptr && *end == '\0' && latency_ms > 0.0;
      if (valid) {
        const std::string pct = entry.substr(at + 1);
        availability_pct = std::strtod(pct.c_str(), &end);
        valid = end != nullptr && *end == '\0' && availability_pct > 0.0 &&
                availability_pct < 100.0;
      }
    }
    if (!valid) {
      std::fprintf(stderr,
                   "[redundancy] REDUNDANCY_SLO_TARGETS entry '%s' is not "
                   "class=latency_ms@availability_pct (e.g. /fast=5@99.9); "
                   "skipping it\n",
                   entry.c_str());
      continue;
    }
    SloTarget target;
    target.latency_slo_ns =
        static_cast<std::uint64_t>(latency_ms * 1'000'000.0);
    target.availability = availability_pct / 100.0;
    out.emplace_back(entry.substr(0, eq), target);
  }
  return out;
}

}  // namespace redundancy::obs
