// Umbrella header for instrumentation sites.
//
// Typical usage at a redundancy decision point, e.g. core::PatternCore:
//
//   obs::ScopedSpan span{"process_replicas"};      // sampled request span
//   ...fan the legs out, passing span.context()...
//   obs::ScopedSpan child{"variant", ctx};         // child, any thread
//   obs::record_adjudication(span.context(), ev);  // why the verdict
//   counters.count(t0, accepted, recovered);       // exact, always-on
//
// Every call is a no-op unless obs::enabled() (and compiles away entirely
// under -DREDUNDANCY_OBS_NOOP).
#pragma once

#include <cstdint>
#include <string>

#include "obs/clock.hpp"
#include "obs/counter.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/gauge.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "obs/windowed.hpp"

namespace redundancy::obs {

/// Find-or-create a named metric in the process-wide registry. Call sites
/// should cache the reference (e.g. in a function-local static) — it stays
/// valid for the life of the process. Pass `technique` to register one
/// labelled series per redundancy technique under a shared family name
/// (rendered as `name{technique="nvp"}`) instead of mangling the technique
/// into the metric name.
[[nodiscard]] inline Counter& counter(const std::string& name,
                                      const std::string& technique = "") {
  return MetricsRegistry::instance().counter(name, technique);
}
[[nodiscard]] inline Histogram& histogram(const std::string& name,
                                          const std::string& technique = "") {
  return MetricsRegistry::instance().histogram(name, technique);
}
[[nodiscard]] inline Gauge& gauge(const std::string& name,
                                  const std::string& technique = "") {
  return MetricsRegistry::instance().gauge(name, technique);
}

/// The verdict series of one technique, each labelled technique=<name>:
/// request latency, requests, recoveries (accepted verdicts that masked at
/// least one failed leg) and unrecovered verdicts. Every adjudicating
/// technique writes them through this type, exactly and regardless of
/// sampling, for each request that started with obs enabled; the SLO
/// engine's health view windows the three counters. Constructing one
/// registers the series, so build it on the first such request.
class TechniqueCounters {
 public:
  static constexpr const char* kRequests = "technique.requests";
  static constexpr const char* kRecoveries = "technique.recoveries";
  static constexpr const char* kUnrecovered = "technique.unrecovered";

  explicit TechniqueCounters(const std::string& technique)
      : latency_(&histogram("technique.request_ns", technique)),
        requests_(&counter(kRequests, technique)),
        recoveries_(&counter(kRecoveries, technique)),
        unrecovered_(&counter(kUnrecovered, technique)) {}

  /// One request that started at `t0` (obs::now_ns()).
  void count(std::uint64_t t0, bool accepted, bool recovered) noexcept {
    latency_->record(now_ns() - t0);
    requests_->add();
    if (!accepted) {
      unrecovered_->add();
    } else if (recovered) {
      recoveries_->add();
    }
  }

 private:
  // Pointers, not references, keep the patterns that hold one assignable.
  Histogram* latency_;
  Counter* requests_;
  Counter* recoveries_;
  Counter* unrecovered_;
};

}  // namespace redundancy::obs
