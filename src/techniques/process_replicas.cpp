#include "techniques/process_replicas.hpp"

#include <string>

#include "obs/obs.hpp"

namespace redundancy::techniques {

ProcessReplicas::ProcessReplicas(
    const vm::Program& program, Options options,
    std::function<void(vm::Vm&, std::size_t)> plant)
    : program_(program),
      options_(options),
      plant_(std::move(plant)),
      engine_(replica_legs(), core::unanimity_voter<vm::Behaviour>()) {
  engine_.set_obs_label("process_replicas");
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

std::vector<core::Variant<ProcessReplicas::Request, vm::Behaviour>>
ProcessReplicas::replica_legs() {
  std::vector<core::Variant<Request, vm::Behaviour>> legs;
  for (std::size_t r = 0; r < options_.replicas; ++r) {
    legs.push_back(core::make_variant<Request, vm::Behaviour>(
        "replica-" + std::to_string(r), [this, r](const Request& request) {
          return vms_[r]->run(partitions_[r].base, request);
        }));
  }
  return legs;
}

void ProcessReplicas::reset() {
  for (std::size_t r = 0; r < vms_.size(); ++r) {
    vms_[r]->reset();
    vms_[r]->load(program_, partitions_[r].base, tag_for(r));
    if (plant_) plant_(*vms_[r], partitions_[r].base);
  }
}

core::Result<vm::Behaviour> ProcessReplicas::serve(const Request& request) {
  auto verdict = engine_.run(request);
  // Unanimity flags any divergence or failed replica as an attack.
  if (!verdict.has_value() &&
      verdict.error().kind == core::FailureKind::detected_attack) {
    ++detections_;
    if (obs::enabled()) {
      static obs::Counter& detected =
          obs::counter("technique.detections", "process_replicas");
      detected.add();
    }
  }
  return verdict;
}

}  // namespace redundancy::techniques
