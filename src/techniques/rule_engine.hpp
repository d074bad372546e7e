// Exception handling and rule engines / registries (Baresi et al. 2007;
// Modafferi et al. 2006).
//
// Developers fill a registry at design time with (failure signature →
// recovery action) rules; at runtime, failures detected on a protected
// operation look up the registry and execute the matching recovery action —
// exception handling generalized into a first-class, inspectable table.
//
// Taxonomy: deliberate / code / reactive explicit / development faults.
// Pattern: intra-component. The failure's signature picks one rule; a
// failed recovery action is not followed by another.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/result.hpp"
#include "services/service.hpp"

namespace redundancy::techniques {

/// A recovery action: given the original request that failed, produce a
/// substitute response (or fail in turn).
using RecoveryAction =
    std::function<core::Result<services::Message>(const services::Message&)>;

class RuleEngine {
 public:
  struct Rule {
    std::string operation;        ///< "*" matches any operation
    core::FailureKind on;         ///< failure kind the rule reacts to
    std::string name;
    RecoveryAction action;
  };

  RuleEngine& add_rule(Rule rule);

  /// Find and run the first matching rule; Result is the recovery outcome,
  /// or the original failure when no rule matches.
  core::Result<services::Message> handle(
      const std::string& operation, const core::Failure& failure,
      const services::Message& request);

  /// Wrap a handler so that its failures are routed through the registry.
  [[nodiscard]] services::Handler protect(std::string operation,
                                          services::Handler inner);

  [[nodiscard]] std::size_t rules() const noexcept { return rules_.size(); }
  [[nodiscard]] std::size_t activations() const noexcept { return activations_; }
  [[nodiscard]] std::size_t recoveries() const noexcept { return recoveries_; }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Exception handling, rule engines",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::code,
        .adjudicator = core::AdjudicatorKind::reactive_explicit,
        .faults = core::TargetFaults::development,
        .pattern = core::ArchitecturalPattern::intra_component,
        .summary = "failure handlers coded at design time are activated "
                   "through registries when matching failures occur",
    };
  }

 private:
  std::vector<Rule> rules_;
  std::size_t activations_ = 0;
  std::size_t recoveries_ = 0;
};

}  // namespace redundancy::techniques
