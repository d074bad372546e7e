#include "core/health.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/clock.hpp"
#include "util/env.hpp"

namespace redundancy::core {

namespace {

/// REDUNDANCY_HEALTH_WINDOW, parsed with the same strictness as
/// REDUNDANCY_THREADS: decimal digits only, range-checked, loud fallback —
/// a typo'd knob must not silently change the health horizon.
std::size_t window_from_env() noexcept {
  constexpr std::size_t kDefault = 64;
  const char* env = std::getenv("REDUNDANCY_HEALTH_WINDOW");
  if (env == nullptr || *env == '\0') return kDefault;
  const std::optional<std::uint64_t> value =
      util::parse_decimal(env, 1, 1'000'000);
  if (!value) {
    std::fprintf(stderr,
                 "[redundancy] REDUNDANCY_HEALTH_WINDOW='%s' is not a valid "
                 "verdict window (expected an integer in 1..1000000); using "
                 "%zu verdicts\n",
                 env, kDefault);
    return kDefault;
  }
  return static_cast<std::size_t>(*value);
}

}  // namespace

std::string_view to_string(HealthState state) noexcept {
  switch (state) {
    case HealthState::unknown: return "unknown";
    case HealthState::ok: return "ok";
    case HealthState::degraded: return "degraded";
    case HealthState::failing: return "failing";
  }
  return "unknown";
}

HealthTracker::HealthTracker() : HealthTracker(window_from_env()) {}

HealthTracker::HealthTracker(std::size_t window)
    : window_(window == 0 ? 1 : window) {}

void HealthTracker::observe(const obs::AdjudicationEvent& event) {
  const bool masked = event.accepted && event.ballots_failed > 0;
  std::lock_guard lock(mutex_);
  Window& w = techniques_[event.technique];
  w.recent.push_back({event.accepted, masked,
                      static_cast<std::uint32_t>(std::min<std::size_t>(
                          event.stragglers_cancelled, UINT32_MAX))});
  if (event.accepted) ++w.accepted; else ++w.rejected;
  if (masked) ++w.masked;
  w.stragglers_cancelled += event.stragglers_cancelled;
  while (w.recent.size() > window_) {
    const Window::Verdict& old = w.recent.front();
    if (old.accepted) --w.accepted; else --w.rejected;
    if (old.masked) --w.masked;
    w.stragglers_cancelled -= old.stragglers;
    w.recent.pop_front();
  }
  const HealthState now = derive(w).state;
  if (now != w.last_state) {
    w.last_state = now;
    w.last_transition_ns = obs::now_ns();
  }
}

TechniqueHealth HealthTracker::derive(const Window& w) {
  TechniqueHealth h;
  h.window = w.recent.size();
  h.accepted = w.accepted;
  h.masked = w.masked;
  h.rejected = w.rejected;
  h.stragglers_cancelled = w.stragglers_cancelled;
  h.error_rate = h.window == 0 ? 0.0
                               : static_cast<double>(h.rejected) /
                                     static_cast<double>(h.window);
  h.last_transition_ns = w.last_transition_ns;
  if (h.window == 0) {
    h.state = HealthState::unknown;
  } else if (h.rejected > 0) {
    h.state = HealthState::failing;
  } else if (h.masked > 0) {
    h.state = HealthState::degraded;
  } else {
    h.state = HealthState::ok;
  }
  return h;
}

TechniqueHealth HealthTracker::technique(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = techniques_.find(name);
  return it == techniques_.end() ? TechniqueHealth{} : derive(it->second);
}

std::vector<std::pair<std::string, TechniqueHealth>> HealthTracker::snapshot()
    const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, TechniqueHealth>> out;
  out.reserve(techniques_.size());
  for (const auto& [name, w] : techniques_) out.emplace_back(name, derive(w));
  return out;  // std::map iterates sorted by name
}

HealthState HealthTracker::overall() const {
  HealthState worst = HealthState::unknown;
  for (const auto& [name, h] : snapshot()) {
    if (static_cast<int>(h.state) > static_cast<int>(worst)) worst = h.state;
  }
  return worst;
}

std::string HealthTracker::healthz_text() const {
  const auto techniques = snapshot();
  HealthState worst = HealthState::unknown;
  for (const auto& [name, h] : techniques) {
    if (static_cast<int>(h.state) > static_cast<int>(worst)) worst = h.state;
  }
  std::string out{"status: "};
  out += to_string(worst);
  out += '\n';
  for (const auto& [name, h] : techniques) {
    out += name;
    out += ": ";
    out += to_string(h.state);
    out += " window=" + std::to_string(h.window);
    out += " accepted=" + std::to_string(h.accepted);
    out += " masked=" + std::to_string(h.masked);
    out += " rejected=" + std::to_string(h.rejected);
    out += " stragglers_cancelled=" + std::to_string(h.stragglers_cancelled);
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.4f", h.error_rate);
    out += " error_rate=";
    out += rate;
    // Milliseconds since the technique last changed state — a probe's
    // quickest read on "is this flapping or stably bad".
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t since_ms =
        h.last_transition_ns == 0 || now < h.last_transition_ns
            ? 0
            : (now - h.last_transition_ns) / 1'000'000ull;
    out += " since_transition_ms=" + std::to_string(since_ms);
    out += '\n';
  }
  return out;
}

void HealthTracker::reset() {
  std::lock_guard lock(mutex_);
  techniques_.clear();
}

}  // namespace redundancy::core
