// Dynamic service substitution (Subramanian et al. 2008; Taher et al. 2006;
// Sadjadi & McKinley 2005; Mosincat & Binder 2008).
//
// Opportunistic code redundancy: popular services exist in multiple
// independent implementations behind (nearly) common interfaces. When the
// bound implementation fails, the consumer is transparently rebound to an
// alternative found in the registry — exact interfaces first, then similar
// interfaces behind an automatically derived converter; stateful
// substitutes are brought up to date by session replay. The mechanics live
// in services::DynamicBinding; this facade adds the technique-level
// accounting and taxonomy.
//
// Taxonomy: opportunistic / code / reactive explicit / development faults.
// Pattern: intra-component. The binding is the one component the consumer
// holds: after a failure it searches the registry for a substitute, wires
// a converter and stays rebound, so there is no fixed list of alternatives
// for a Figure-1 pattern to run in turn.
#pragma once

#include <memory>

#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "services/binding.hpp"

namespace redundancy::techniques {

class ServiceSubstitution {
 public:
  ServiceSubstitution(services::Interface iface, services::Registry& registry,
                      services::DynamicBinding::Options options)
      : binding_(std::make_shared<services::DynamicBinding>(
            std::move(iface), registry, options)) {}
  ServiceSubstitution(services::Interface iface, services::Registry& registry)
      : ServiceSubstitution(std::move(iface), registry,
                            services::DynamicBinding::Options{}) {}

  core::Result<services::Message> call(const services::Message& request) {
    ++metrics_.requests;
    const std::size_t before = binding_->rebinds();
    auto out = binding_->call(request);
    ++metrics_.variant_executions;
    if (!out.has_value()) {
      ++metrics_.unrecovered;
      ++metrics_.variant_failures;
    } else if (binding_->rebinds() > before) {
      ++metrics_.recoveries;
    }
    return out;
  }

  [[nodiscard]] const std::shared_ptr<services::DynamicBinding>& binding()
      const noexcept {
    return binding_;
  }
  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return metrics_;
  }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Dynamic service substitution",
        .intention = core::Intention::opportunistic,
        .type = core::RedundancyType::code,
        .adjudicator = core::AdjudicatorKind::reactive_explicit,
        .faults = core::TargetFaults::development,
        .pattern = core::ArchitecturalPattern::intra_component,
        .summary = "links to alternative services (adapted via converters "
                   "when interfaces merely resemble) to overcome failures",
    };
  }

 private:
  std::shared_ptr<services::DynamicBinding> binding_;
  core::Metrics metrics_;
};

}  // namespace redundancy::techniques
