// N-version programming (Avizienis 1985).
//
// Independently developed versions execute in parallel on the same input
// configuration; a general voting algorithm — the *implicit* adjudicator —
// compares the results and selects the majority value. With N = 2k+1
// versions the system tolerates up to k faulty results per request.
//
// Taxonomy: deliberate / code / reactive implicit / development faults.
// Pattern: parallel evaluation (Figure 1a).
#pragma once

#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/registry.hpp"
#include "core/voters.hpp"

namespace redundancy::techniques {

template <typename In, typename Out>
class NVersionProgramming {
 public:
  using Engine = core::ParallelEvaluation<In, Out>;

  /// `versions` are the independently developed implementations. The
  /// default adjudicator is the strict-majority voter; pass e.g.
  /// core::median_voter for inexact voting. With Concurrency::threaded +
  /// Adjudication::incremental the vote is re-taken as ballots arrive and
  /// run() returns as soon as a majority exists — only sound for
  /// majority-style voters (see core/concurrency.hpp).
  explicit NVersionProgramming(
      std::vector<core::Variant<In, Out>> versions,
      core::Voter<Out> voter = core::majority_voter<Out>(),
      core::Concurrency mode = core::Concurrency::sequential,
      core::Adjudication adjudication = core::Adjudication::join_all)
      : engine_(std::move(versions), std::move(voter), mode, adjudication) {
    engine_.set_obs_label("nvp");
  }

  core::Result<Out> run(const In& input) { return engine_.run(input); }

  /// Memoize adjudicated majority verdicts (deterministic version sets
  /// only); keyed by (technique, input digest), invalidated by restart
  /// epochs. See core/redundancy_cache.hpp.
  void enable_cache(core::CacheConfig config = {}) {
    engine_.enable_cache(std::move(config));
  }
  void disable_cache() noexcept { engine_.disable_cache(); }
  [[nodiscard]] core::RedundancyCache<Out>* cache() noexcept {
    return engine_.cache();
  }
  void invalidate_cache() noexcept { engine_.invalidate_cache(); }

  /// Number of faulty results a full-width majority round can mask.
  [[nodiscard]] std::size_t tolerated_faults() const noexcept {
    return engine_.width() == 0 ? 0 : (engine_.width() - 1) / 2;
  }
  [[nodiscard]] std::size_t versions() const noexcept { return engine_.width(); }
  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return engine_.metrics();
  }
  void reset_metrics() noexcept { engine_.reset_metrics(); }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "N-version programming",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::code,
        .adjudicator = core::AdjudicatorKind::reactive_implicit,
        .faults = core::TargetFaults::development,
        .pattern = Engine::kPattern,
        .summary = "compares the results of executing different versions of "
                   "the program to identify errors",
    };
  }

 private:
  Engine engine_;
};

}  // namespace redundancy::techniques
