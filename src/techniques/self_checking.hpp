// Self-checking programming (Laprie et al. 1990; Yau & Cheung 1975).
//
// Each functionality is implemented by at least two self-checking
// components executing in parallel: an *acting* component whose result is
// used, and *hot spares* whose results stand ready. A self-checking
// component is either (a) an implementation plus a built-in acceptance
// test — an explicit adjudicator — or (b) a pair of implementations with a
// final comparison — an implicit adjudicator. A failed acting component is
// discarded and replaced by its spare; no rollback is ever needed, but the
// deployed redundancy is progressively consumed.
//
// Taxonomy: deliberate / code / reactive expl./impl. / development faults.
// Pattern: parallel selection (Figure 1b).
#pragma once

#include <vector>

#include "core/parallel_selection.hpp"
#include "core/registry.hpp"

namespace redundancy::techniques {

template <typename In, typename Out>
class SelfCheckingProgramming {
 public:
  using Engine = core::ParallelSelection<In, Out>;
  using Component = typename Engine::Checked;

  /// Build a self-checking component of form (a): implementation + built-in
  /// acceptance test.
  static Component checked(core::Variant<In, Out> impl,
                           core::AcceptanceTest<In, Out> test) {
    return Component{std::move(impl), std::move(test)};
  }

  /// Build a self-checking component of form (b): a pair of independent
  /// implementations compared against each other — the comparison *is* the
  /// adjudicator, so no application-specific test is needed.
  static Component compared(core::Variant<In, Out> first,
                            core::Variant<In, Out> second) {
    auto pair_fn = [first, second](const In& input) -> core::Result<Out> {
      auto a = first(input);
      auto b = second(input);
      if (!a.has_value()) return a;
      if (!b.has_value()) return b;
      if (!(a.value() == b.value())) {
        return core::failure(core::FailureKind::wrong_output,
                             "internal comparison mismatch in " + first.name);
      }
      return a;
    };
    core::Variant<In, Out> fused = core::make_variant<In, Out>(
        first.name + "||" + second.name, std::move(pair_fn),
        first.cost + second.cost);
    return Component{std::move(fused), core::accept_all<In, Out>()};
  }

  /// With Concurrency::threaded the components fan out on the shared pool
  /// and the first passing result to arrive wins (components must be
  /// thread-safe); sequential keeps the acting/spare priority order.
  explicit SelfCheckingProgramming(
      std::vector<Component> components,
      core::Concurrency mode = core::Concurrency::sequential)
      : engine_(std::move(components),
                typename Engine::Options{.disable_on_failure = true,
                                         .lazy = false,
                                         .concurrency = mode}) {
    engine_.set_obs_label("self_checking");
  }

  core::Result<Out> run(const In& input) { return engine_.run(input); }

  /// Identity of the component currently acting.
  [[nodiscard]] std::size_t acting() const noexcept { return engine_.acting(); }
  /// Spares (plus acting) still in service.
  [[nodiscard]] std::size_t in_service() const noexcept {
    return engine_.alive();
  }
  void redeploy_all() noexcept { engine_.reinstate_all(); }

  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return engine_.metrics();
  }
  void reset_metrics() noexcept { engine_.reset_metrics(); }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Self-checking programming",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::code,
        .adjudicator = core::AdjudicatorKind::reactive_hybrid,
        .faults = core::TargetFaults::development,
        .pattern = Engine::kPattern,
        .summary = "parallelizes the execution of recovery blocks: acting "
                   "components are replaced by hot spares on failure",
    };
  }

 private:
  Engine engine_;
};

}  // namespace redundancy::techniques
