// Recovery blocks (Randell 1975).
//
// A primary block executes; an explicitly designed *acceptance test* judges
// its result. On rejection the system rolls back to the state it had before
// the primary ran and executes the next alternate, repeating while
// alternates remain.
//
// Taxonomy: deliberate / code / reactive explicit / development faults.
// Pattern: sequential alternatives (Figure 1c).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/parallel_selection.hpp"
#include "core/registry.hpp"
#include "core/sequential_alternatives.hpp"
#include "env/checkpoint.hpp"

namespace redundancy::techniques {

template <typename In, typename Out>
class RecoveryBlocks {
 public:
  using Engine = core::SequentialAlternatives<In, Out>;

  /// Stateless form: no rollback is needed because alternates are pure.
  RecoveryBlocks(std::vector<core::Variant<In, Out>> alternates,
                 core::AcceptanceTest<In, Out> acceptance)
      : engine_(std::move(alternates), std::move(acceptance)) {
    engine_.set_obs_label("recovery_blocks");
  }

  /// Stateful form: `state` is checkpointed on entry to run() and restored
  /// before each alternate after a rejection — Randell's recovery cache.
  RecoveryBlocks(std::vector<core::Variant<In, Out>> alternates,
                 core::AcceptanceTest<In, Out> acceptance,
                 env::Checkpointable& state)
      : store_(std::in_place, 2),
        state_(&state),
        engine_(std::move(alternates), std::move(acceptance),
                typename Engine::Options{
                    .rollback =
                        [this] {
                          if (state_ != nullptr) {
                            (void)store_->restore_latest(*state_);
                          }
                        },
                    .max_attempts = 0,
                    .hedge = {}}) {
    engine_.set_obs_label("recovery_blocks");
  }

  core::Result<Out> run(const In& input) {
    if (state_ != nullptr) store_->capture(*state_);
    return engine_.run(input);
  }

  /// Memoize accepted results (stateless, deterministic alternate sets
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

  /// Hedge slow primaries: launch the next alternate once the primary has
  /// run past a p95-derived latency budget instead of waiting for it to
  /// fail. Stateless form only — the engine ignores hedging when a rollback
  /// is installed.
  void enable_hedging(
      typename Engine::Options::Hedge hedge = {.enabled = true}) {
    hedge.enabled = true;
    engine_.set_hedge(hedge);
  }
  [[nodiscard]] std::uint64_t hedge_budget_ns() {
    return engine_.hedge_budget_ns();
  }

  [[nodiscard]] std::size_t last_used_alternate() const noexcept {
    return engine_.last_used();
  }
  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return engine_.metrics();
  }
  void reset_metrics() noexcept { engine_.reset_metrics(); }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Recovery blocks",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::code,
        .adjudicator = core::AdjudicatorKind::reactive_explicit,
        .faults = core::TargetFaults::development,
        .pattern = Engine::kPattern,
        .summary = "check the results of executing a program version and "
                   "switch to a different version if the current execution "
                   "fails",
    };
  }

 private:
  std::optional<env::CheckpointStore> store_;
  env::Checkpointable* state_ = nullptr;
  Engine engine_;
};

/// Concurrent recovery blocks: primary and alternates race on the shared
/// pool and the first result to pass the acceptance test is returned
/// (Randell's scheme with the rollback latency traded for redundant
/// execution cost). Only valid for *stateless* (pure) alternates — there is
/// no checkpoint to restore because nothing shared is mutated — and the
/// alternates must be thread-safe. Unlike the sequential form, a rejected
/// alternate is not taken out of service: rejection reflects this input,
/// not component death.
template <typename In, typename Out>
class ConcurrentRecoveryBlocks {
 public:
  ConcurrentRecoveryBlocks(std::vector<core::Variant<In, Out>> alternates,
                           core::AcceptanceTest<In, Out> acceptance)
      : engine_(wrap(std::move(alternates), std::move(acceptance)),
                typename core::ParallelSelection<In, Out>::Options{
                    .disable_on_failure = false,
                    .lazy = true,
                    .concurrency = core::Concurrency::threaded}) {
    engine_.set_obs_label("concurrent_recovery_blocks");
  }

  core::Result<Out> run(const In& input) { return engine_.run(input); }

  /// Index of the alternate whose result was last accepted.
  [[nodiscard]] std::size_t last_used_alternate() const noexcept {
    return engine_.acting();
  }
  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return engine_.metrics();
  }
  void reset_metrics() noexcept { engine_.reset_metrics(); }

 private:
  static std::vector<typename core::ParallelSelection<In, Out>::Checked> wrap(
      std::vector<core::Variant<In, Out>> alternates,
      core::AcceptanceTest<In, Out> acceptance) {
    std::vector<typename core::ParallelSelection<In, Out>::Checked> checked;
    checked.reserve(alternates.size());
    for (auto& alt : alternates) {
      checked.push_back({std::move(alt), acceptance});
    }
    return checked;
  }

  core::ParallelSelection<In, Out> engine_;
};

}  // namespace redundancy::techniques
