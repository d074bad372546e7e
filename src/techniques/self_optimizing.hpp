// Self-optimizing code (Diaconescu et al. 2004; Naccache & Gannod 2007).
//
// The same functionality is deliberately implemented by several components,
// each optimized for different runtime conditions. A monitor — the explicit
// adjudicator — watches the delivered quality of service and, when the SLA
// is violated over a sliding window, switches the active implementation,
// trying the registered alternatives in order of declared preference.
//
// Taxonomy: deliberate / code / reactive explicit / development faults
// (here: performance faults, a non-functional development fault).
// Pattern: intra-component. The monitor switches implementation on a
// windowed SLA, not per request: no request tries a second alternative.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/result.hpp"

namespace redundancy::techniques {

/// One implementation choice: the handler reports its (simulated or
/// measured) latency for each served request.
struct QosImplementation {
  std::string name;
  /// request size -> (result value, latency ms)
  std::function<std::pair<double, double>(double)> handler;
};

class SelfOptimizing {
 public:
  struct Options {
    double sla_latency_ms = 50.0;  ///< window average above this => switch
    std::size_t window = 16;       ///< sliding window length (requests)
    std::size_t warmup = 4;        ///< min observations before judging
  };

  SelfOptimizing(std::vector<QosImplementation> implementations,
                 Options options);

  /// Serve one request; may switch implementation as a side effect.
  core::Result<double> run(double request);

  [[nodiscard]] const std::string& active() const noexcept {
    return impls_[active_].name;
  }
  [[nodiscard]] std::size_t switches() const noexcept { return switches_; }
  [[nodiscard]] double window_average_latency() const noexcept;
  [[nodiscard]] std::size_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::size_t sla_violations() const noexcept {
    return violations_;
  }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Self-optimizing code",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::code,
        .adjudicator = core::AdjudicatorKind::reactive_explicit,
        .faults = core::TargetFaults::development,
        .pattern = core::ArchitecturalPattern::intra_component,
        .summary = "changes the executing components to recover from "
                   "performance degradation",
    };
  }

 private:
  std::vector<QosImplementation> impls_;
  Options options_;
  std::size_t active_ = 0;
  std::deque<double> window_;
  std::size_t switches_ = 0;
  std::size_t requests_ = 0;
  std::size_t violations_ = 0;  ///< individual requests above the SLA
};

}  // namespace redundancy::techniques
