#include "techniques/checkpoint_recovery.hpp"

#include "obs/obs.hpp"

namespace redundancy::techniques {

namespace {

/// Emit the explicit-adjudicator event for one protected operation: each
/// execution is a ballot, the acceptance test is "did the Status succeed".
void record_run(const obs::SpanContext& ctx, std::size_t attempts,
                std::size_t failures, bool accepted) {
  if (!ctx.active()) return;
  obs::AdjudicationEvent event;
  event.technique = "checkpoint_recovery";
  event.electorate = attempts;
  event.ballots_seen = attempts;
  event.ballots_failed = failures;
  event.accepted = accepted;
  event.verdict = accepted ? "ok" : "retries exhausted";
  obs::record_adjudication(ctx, std::move(event));
}

}  // namespace

CheckpointRecovery::CheckpointRecovery(env::Checkpointable& subject,
                                       Options options)
    : subject_(subject), store_(options.retained), options_(options) {
  checkpoint();  // always have a consistent state to return to
}

void CheckpointRecovery::checkpoint() {
  store_.capture(subject_);
  ++checkpoints_;
  since_checkpoint_ = 0;
}

core::Status CheckpointRecovery::run(const std::function<core::Status()>& op) {
  obs::ScopedSpan span{"checkpoint_recovery.run"};
  const obs::SpanContext ctx = span.context();
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  const auto finish = [&](std::size_t attempts, std::size_t failures,
                          bool accepted) {
    if (t0 != 0) {
      static obs::TechniqueCounters counters{"checkpoint_recovery"};
      static obs::Counter& rolled =
          obs::counter("technique.rollbacks", "checkpoint_recovery");
      counters.count(t0, accepted, failures != 0);
      if (failures != 0) rolled.add(failures);
    }
    record_run(ctx, attempts, failures, accepted);
    span.set_ok(accepted);
  };
  if (options_.checkpoint_every > 0 &&
      since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint();
  }
  core::Status outcome = op();
  if (outcome.has_value()) {
    ++since_checkpoint_;
    finish(1, 0, true);
    return outcome;
  }
  for (std::size_t attempt = 0; attempt < options_.max_retries; ++attempt) {
    if (auto restored = store_.restore_latest(subject_); !restored.has_value()) {
      ++unrecovered_;
      finish(attempt + 1, attempt + 1, false);
      return restored;
    }
    ++rollbacks_;
    // Operations executed since the checkpoint are re-applied by the caller
    // at the granularity of this op; the environment re-rolls on its own.
    outcome = op();
    if (outcome.has_value()) {
      ++recoveries_;
      ++since_checkpoint_;
      finish(attempt + 2, attempt + 1, true);
      return outcome;
    }
  }
  // Fail-stop with a consistent state: leave the subject at the checkpoint
  // rather than wherever the last failed re-execution abandoned it.
  if (auto restored = store_.restore_latest(subject_); restored.has_value()) {
    ++rollbacks_;
  }
  ++unrecovered_;
  finish(1 + options_.max_retries, 1 + options_.max_retries, false);
  return outcome;
}

}  // namespace redundancy::techniques
