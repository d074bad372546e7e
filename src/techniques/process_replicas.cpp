#include "techniques/process_replicas.hpp"

#include <optional>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::techniques {

ProcessReplicas::ProcessReplicas(
    const vm::Program& program, Options options,
    std::function<void(vm::Vm&, std::size_t)> plant)
    : program_(program), options_(options), plant_(std::move(plant)) {
  if (options_.partition_addresses) {
    partitions_ =
        vm::partition_address_space(options_.memory_words, options_.replicas);
  } else {
    // Without partitioning every replica sees the same layout at base 0.
    partitions_.assign(options_.replicas,
                       vm::Partition{0, options_.memory_words});
  }
  for (std::size_t r = 0; r < options_.replicas; ++r) {
    vm::VmConfig cfg;
    cfg.memory_words = options_.memory_words;
    cfg.max_steps = options_.max_steps;
    cfg.enforce_tags = options_.tag_instructions;
    cfg.expected_tag = tag_for(r);
    if (options_.partition_addresses) {
      cfg.region_base = partitions_[r].base;
      cfg.region_words = partitions_[r].words;
    }
    vms_.push_back(std::make_unique<vm::Vm>(cfg));
  }
  reset();
}

void ProcessReplicas::reset() {
  for (std::size_t r = 0; r < vms_.size(); ++r) {
    vms_[r]->reset();
    vms_[r]->load(program_, partitions_[r].base, tag_for(r));
    if (plant_) plant_(*vms_[r], partitions_[r].base);
  }
}

core::Result<vm::Behaviour> ProcessReplicas::serve(
    const std::vector<std::int64_t>& request) {
  ++requests_;
  obs::ScopedSpan span{"process_replicas.serve"};
  const obs::SpanContext ctx = span.context();
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  std::vector<core::Ballot<vm::Behaviour>> ballots;
  ballots.reserve(vms_.size());
  if (options_.concurrency == core::Concurrency::threaded) {
    // Replicas are disjoint VMs, so each can run on its own worker; the
    // barrier below keeps the comparison over the complete behaviour set.
    std::vector<std::optional<core::Ballot<vm::Behaviour>>> slots(vms_.size());
    util::BatchRunner batch;
    for (std::size_t r = 0; r < vms_.size(); ++r) {
      batch.add([this, r, &slots, &request, ctx] {
        obs::ScopedSpan rspan{"replica", ctx};
        rspan.set_detail("replica-" + std::to_string(r));
        slots[r].emplace(r, "replica-" + std::to_string(r),
                         vms_[r]->run(partitions_[r].base, request));
        rspan.set_ok(slots[r]->result.has_value());
      });
    }
    batch.run_and_wait();
    for (auto& slot : slots) ballots.push_back(std::move(*slot));
  } else {
    for (std::size_t r = 0; r < vms_.size(); ++r) {
      obs::ScopedSpan rspan{"replica", ctx};
      rspan.set_detail("replica-" + std::to_string(r));
      auto behaviour = vms_[r]->run(partitions_[r].base, request);
      rspan.set_ok(behaviour.has_value());
      ballots.push_back(
          {r, "replica-" + std::to_string(r), std::move(behaviour)});
    }
  }
  auto verdict = core::unanimity_voter<vm::Behaviour>()(ballots);
  const bool attack = !verdict.has_value() &&
                      verdict.error().kind == core::FailureKind::detected_attack;
  if (attack) ++detections_;
  if (ctx.active()) {
    obs::AdjudicationEvent event;
    event.technique = "process_replicas";
    event.electorate = ballots.size();
    event.ballots_seen = ballots.size();
    for (const auto& b : ballots) {
      if (!b.result.has_value()) ++event.ballots_failed;
    }
    event.accepted = verdict.has_value();
    event.verdict = verdict.has_value()
                        ? "ok"
                        : (attack ? "divergence: " + verdict.error().describe()
                                  : verdict.error().describe());
    obs::record_adjudication(ctx, std::move(event));
  }
  if (t0 != 0) {
    static obs::Histogram& latency =
        obs::histogram("technique.request_ns", "process_replicas");
    static obs::Counter& served =
        obs::counter("technique.requests", "process_replicas");
    static obs::Counter& detected =
        obs::counter("technique.detections", "process_replicas");
    latency.record(obs::now_ns() - t0);
    served.add();
    if (attack) detected.add();
  }
  span.set_ok(verdict.has_value());
  return verdict;
}

}  // namespace redundancy::techniques
