// Live SLO engine: windowed percentiles, error budgets, burn-rate alerts,
// and the health view behind /healthz.
//
// An SLO here is "fraction `availability` of requests in a class succeed
// within `latency_slo_ns`", the shape used throughout SRE practice. The
// tracker keeps, per request class, cumulative good/bad counters and a
// latency histogram in the MetricsRegistry (labelled technique=<class>, so
// /metrics carries the ground truth) wrapped by the obs::Windowed* views.
// On each tick it rotates the windows and evaluates Google-SRE-style
// multi-window multi-burn-rate rules:
//
//   burn(W) = error_rate(W) / (1 - availability)
//
// A rule fires when BOTH its long and short windows burn above threshold —
// the long window gives significance, the short one confirms the problem is
// still happening (fast recovery auto-resolves the alert). kBurnRules is
// the canonical pair: fast_burn (1h budget in ~1h: 14.4x over 1m confirmed
// by 10s, page-worthy) and slow_burn (6x over 1h confirmed by 5m, ticket-
// worthy). A page-level firing drives the class to SloState::failing and a
// ticket-level one to degraded. A BreachCallback fires edge-triggered on
// escalation to failing, used to trigger flight-recorder dumps.
//
// Health is the paper's adjudicator turned into a probe: a verdict that
// masks failed ballots spends redundancy, a rejected one has run out of it.
// Every technique counts its verdicts in the exact technique.* series
// (obs::TechniqueCounters, sampling-independent); the tracker windows each
// technique's requests, recoveries and unrecovered verdicts and rotates
// them with the classes. health() reads them over the 10s window:
//
//   failing   — ≥1 unrecovered verdict
//   degraded  — none, but ≥1 recovery (an accepted verdict that masked a
//               failed leg)
//   ok        — neither; an idle technique is not unhealthy
//
// and adds one "slo:<class>" row per class carrying its burn-rate state.
// The rows are the /healthz body, and the worst of them its status.
//
// Feeding the classes: observe() is the direct path (the gateway calls it
// per request) and registers an unknown class at kDefaultTarget. As a
// TraceSink the tracker also scores spans whose name matches a registered
// class, with the span's duration.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "obs/windowed.hpp"

namespace redundancy::obs {

class Counter;
class Gauge;
class Histogram;

/// Per-class objective: a request is good iff it succeeded AND finished
/// within latency_slo_ns; at least `availability` of requests must be good.
struct SloTarget {
  std::uint64_t latency_slo_ns = 100'000'000;  ///< 100ms
  double availability = 0.999;                 ///< three nines
};

/// Target of a class first seen through observe().
inline constexpr SloTarget kDefaultTarget{};

/// One multi-window burn-rate rule. Fires when burn(long) and burn(short)
/// both exceed `threshold`.
struct BurnRule {
  const char* name;          ///< e.g. "fast_burn"
  std::uint64_t long_ns;     ///< significance window
  std::uint64_t short_ns;    ///< confirmation window
  double threshold;          ///< burn-rate multiple that fires the rule
  bool page;                 ///< page (failing) vs ticket (degraded)
};

/// The canonical SRE-workbook pair for a multi-hour budget.
inline constexpr BurnRule kBurnRules[] = {
    {"fast_burn", 60'000'000'000ull, 10'000'000'000ull, 14.4, true},
    {"slow_burn", 3'600'000'000'000ull, 300'000'000'000ull, 6.0, false},
};

/// The state of a class and of a health row.
enum class SloState : std::uint8_t { ok = 0, degraded = 1, failing = 2 };
[[nodiscard]] const char* to_string(SloState state) noexcept;

/// One /healthz row over the 10s window: a technique, or an SLO class
/// named "slo:<class>".
struct HealthRow {
  std::string name;
  SloState state = SloState::ok;
  std::uint64_t requests = 0;
  std::uint64_t recoveries = 0;  ///< technique rows: masked failed legs
  std::uint64_t errors = 0;      ///< unrecovered verdicts, or SLO misses
};

struct HealthReport {
  SloState status = SloState::ok;  ///< worst row; ok when there are none
  std::vector<HealthRow> rows;     ///< techniques by name, then classes

  /// The /healthz body: "status: <state>", then one line per row.
  [[nodiscard]] std::string text() const;
};

class SloTracker final : public TraceSink {
 public:
  struct Options {
    /// Window rotation cadence and ring depth (defaults cover 1h windows).
    std::uint64_t epoch_ns = 10'000'000'000ull;
    std::size_t slots = 361;
  };

  /// Edge-triggered on a class escalating to failing: (class, rule name).
  using BreachCallback =
      std::function<void(const std::string&, const std::string&)>;

  SloTracker();  ///< all Options defaults
  explicit SloTracker(Options options);
  ~SloTracker() override;

  /// Register (or retarget) a request class. Safe at any time.
  void register_class(std::string_view request_class, SloTarget target);

  /// Score one request against its class target, registering an unknown
  /// class at kDefaultTarget. `ok=false` is an error regardless of latency.
  void observe(std::string_view request_class, std::uint64_t latency_ns,
               bool ok);

  // TraceSink: spans named exactly like a registered class are scored with
  // their duration. Verdicts reach the health view through the exact
  // technique.* counters instead, so sampling cannot thin them.
  void on_span(const SpanRecord& span) override;
  void on_adjudication(const AdjudicationEvent&) override {}

  /// Rotate every class's and technique's windows at `now_ns`, evaluate
  /// burn rules, update gauges, fire breaches. Call from the rotation
  /// thread (start()) or directly with synthetic time in tests.
  void tick(std::uint64_t now_ns);

  /// Flat NDJSON snapshot: one {"type":"slo_window",...} line per class per
  /// window and one {"type":"slo_class",...} summary line per class. This
  /// is the body of `GET /slo` and the input of `tracetool slo`.
  [[nodiscard]] std::string snapshot_jsonl(std::uint64_t now_ns) const;

  /// The health view at `now_ns` (see the file comment), the live partial
  /// epoch included. A technique that counted its first verdicts since the
  /// last tick gets its row with all of them.
  [[nodiscard]] HealthReport health(std::uint64_t now_ns);

  /// Current state of one class (SloState::ok for unknown classes).
  [[nodiscard]] SloState state(std::string_view request_class) const;

  void set_breach_callback(BreachCallback cb);

  /// Start/stop a background thread calling tick(obs::now_ns()) every
  /// epoch. `epoch_override_ns` replaces Options::epoch_ns when nonzero.
  void start(std::uint64_t epoch_override_ns = 0);
  void stop();

  [[nodiscard]] std::uint64_t epoch_ns() const noexcept {
    return options_.epoch_ns;
  }

 private:
  struct ClassState {
    std::string name;
    SloTarget target;
    // Cumulative ground truth, owned by MetricsRegistry (leaked with it).
    Counter* requests = nullptr;
    Counter* errors = nullptr;
    Histogram* latency = nullptr;
    std::unique_ptr<WindowedCounter> w_requests;
    std::unique_ptr<WindowedCounter> w_errors;
    std::unique_ptr<WindowedHistogram> w_latency;
    SloState state = SloState::ok;
    std::uint64_t last_transition_ns = 0;
    std::array<bool, std::size(kBurnRules)> rule_firing{};
  };

  /// One technique's windowed technique.* verdict counters.
  struct TechniqueWindows {
    TechniqueWindows(const std::string& technique, WindowOptions options,
                     bool count_history);
    WindowedCounter requests;
    WindowedCounter recoveries;
    WindowedCounter unrecovered;
  };

  ClassState* find_locked(std::string_view request_class);
  const ClassState* find_locked(std::string_view request_class) const;
  /// Find `request_class`, or register it at `target`.
  ClassState& class_locked(std::string_view request_class, SloTarget target);
  static void score(ClassState& c, std::uint64_t latency_ns, bool ok);
  /// Window every technique that has started counting verdicts and is not
  /// windowed yet; `count_history` makes its counts so far window events.
  void discover_techniques_locked(bool count_history);

  Options options_;
  mutable std::shared_mutex mutex_;
  std::vector<std::unique_ptr<ClassState>> classes_;
  std::map<std::string, TechniqueWindows> techniques_;
  BreachCallback breach_cb_;

  std::thread rotator_;
  std::mutex run_mutex_;
  std::condition_variable run_cv_;
  bool running_ = false;
};

/// Parse "class=latency_ms@availability_pct,..." (the REDUNDANCY_SLO_TARGETS
/// format), e.g. "/fast=5@99.9,process_replicas=50@99". Malformed
/// entries are skipped with a loud stderr warning; returns the valid
/// (class, target) pairs.
[[nodiscard]] std::vector<std::pair<std::string, SloTarget>>
parse_slo_targets(const char* spec);

}  // namespace redundancy::obs
