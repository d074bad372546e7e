// Process replicas / N-variant systems (Cox et al. 2006; Bruschi et al.
// 2007).
//
// The same program runs in N automatically diversified replicas — here:
// disjoint address-space partitions and per-replica instruction tags on the
// VM — fed identical inputs. A monitor compares the replicas' observable
// behaviour after every request; benign requests behave identically, while
// a memory-corruption attack can succeed in at most one replica's layout,
// so the replicas diverge and the monitor flags the attack (an implicit,
// comparison-based adjudicator). No secrets are required: the defense rests
// on the attacker's inability to craft one input valid in every variant.
//
// The replicas are the legs of one core::ParallelEvaluation (Figure 1a)
// labelled "process_replicas" and judged by the stock unanimity voter;
// the pattern owns the fan-out, the spans, the verdict and the counters.
//
// Taxonomy: deliberate / environment / reactive implicit / malicious.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/registry.hpp"
#include "vm/address_space.hpp"
#include "vm/vm.hpp"

namespace redundancy::techniques {

class ProcessReplicas {
 public:
  using Request = std::vector<std::int64_t>;
  using Engine = core::ParallelEvaluation<Request, vm::Behaviour>;

  struct Options {
    std::size_t replicas = 2;
    bool partition_addresses = true;  ///< Cox mechanism 1
    bool tag_instructions = true;     ///< Cox mechanism 2
    std::size_t memory_words = 4096;
    std::uint64_t max_steps = 20'000;
  };

  /// Load `program` into every replica; `plant` pokes per-replica data
  /// (e.g. secrets) given (vm, partition_base).
  ProcessReplicas(const vm::Program& program, Options options,
                  std::function<void(vm::Vm&, std::size_t)> plant = nullptr);
  // The engine's legs point back at this object's replicas.
  ProcessReplicas(const ProcessReplicas&) = delete;
  ProcessReplicas& operator=(const ProcessReplicas&) = delete;

  /// Serve one request on every replica and compare behaviours.
  core::Result<vm::Behaviour> serve(const Request& request);

  /// Reset every replica to its pristine loaded image (between requests in
  /// experiments; a real deployment would fork fresh replicas).
  void reset();

  [[nodiscard]] std::size_t replicas() const noexcept { return vms_.size(); }
  [[nodiscard]] std::size_t detections() const noexcept { return detections_; }
  [[nodiscard]] const std::vector<vm::Partition>& partitions() const noexcept {
    return partitions_;
  }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Process replicas",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::environment,
        .adjudicator = core::AdjudicatorKind::reactive_implicit,
        .faults = core::TargetFaults::malicious,
        .pattern = Engine::kPattern,
        .summary = "executes the same process in diversified memory spaces "
                   "and compares behaviour to detect malicious attacks",
    };
  }

 private:
  [[nodiscard]] std::uint8_t tag_for(std::size_t replica) const noexcept {
    return options_.tag_instructions
               ? static_cast<std::uint8_t>(replica + 1)
               : 0;
  }

  /// One leg per replica: the request served by that replica's VM.
  [[nodiscard]] std::vector<core::Variant<Request, vm::Behaviour>>
  replica_legs();

  vm::Program program_;
  Options options_;
  std::function<void(vm::Vm&, std::size_t)> plant_;
  std::vector<vm::Partition> partitions_;
  std::vector<std::unique_ptr<vm::Vm>> vms_;
  Engine engine_;
  std::size_t detections_ = 0;
};

}  // namespace redundancy::techniques
