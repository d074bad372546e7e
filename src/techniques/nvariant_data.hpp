// Data diversity for security — N-variant data (Nguyen-Tuong, Evans,
// Knight, Cox, Davidson 2008).
//
// Data is stored in N variants such that identical *concrete* values have
// different *interpretations* in each variant. A legitimate writer encodes
// per-variant; an attacker who corrupts memory writes the same concrete
// bytes into every variant (or hits only some variants), so the decoded
// interpretations disagree and the comparison — an implicit adjudicator —
// flags the corruption. To evade detection the attacker would have to alter
// each variant differently, with knowledge of every variant's encoding.
//
// A read is one core::ParallelEvaluation call (Figure 1a) labelled
// "nvariant_data": one leg per variant decodes the cell, and the stock
// unanimity voter compares the interpretations.
//
// Taxonomy: deliberate / data / reactive implicit / malicious faults.
#pragma once

#include <cstdint>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/registry.hpp"
#include "core/result.hpp"
#include "util/rng.hpp"

namespace redundancy::techniques {

class NVariantStore {
 public:
  using Engine = core::ParallelEvaluation<std::size_t, std::int64_t>;

  /// `variants` independent encodings; masks are derived from `seed` and
  /// private to the store (the attacker does not see them).
  NVariantStore(std::size_t cells, std::size_t variants, std::uint64_t seed);
  // The engine's legs point back at this store's variants.
  NVariantStore(const NVariantStore&) = delete;
  NVariantStore& operator=(const NVariantStore&) = delete;

  /// Legitimate write: encodes the value into every variant.
  core::Status write(std::size_t cell, std::int64_t value);

  /// Legitimate read: decodes every variant and compares interpretations.
  [[nodiscard]] core::Result<std::int64_t> read(std::size_t cell);

  // --- attack surface ----------------------------------------------------
  /// Memory-corruption attack: the attacker smashes the concrete storage of
  /// `cell`, writing the same raw word into every variant (they address
  /// physical memory, not the encoding).
  void smash_all_variants(std::size_t cell, std::int64_t raw);
  /// Partial corruption: only variant `v` is overwritten.
  void smash_one_variant(std::size_t cell, std::size_t v, std::int64_t raw);

  [[nodiscard]] std::size_t cells() const noexcept { return cells_; }
  [[nodiscard]] std::size_t variants() const noexcept { return masks_.size(); }
  [[nodiscard]] std::size_t detections() const noexcept { return detections_; }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Data diversity for security",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::data,
        .adjudicator = core::AdjudicatorKind::reactive_implicit,
        .faults = core::TargetFaults::malicious,
        .pattern = Engine::kPattern,
        .summary = "stores data in variants where identical concrete values "
                   "have different interpretations; comparison exposes "
                   "corruption",
    };
  }

 private:
  [[nodiscard]] std::int64_t encode(std::size_t v, std::int64_t value) const;
  [[nodiscard]] std::int64_t decode(std::size_t v, std::int64_t raw) const;
  /// One leg per variant: the cell as that variant interprets it.
  [[nodiscard]] std::vector<core::Variant<std::size_t, std::int64_t>> decoders(
      std::size_t variants) const;

  std::size_t cells_;
  std::vector<std::uint64_t> masks_;          ///< one per variant
  std::vector<std::vector<std::int64_t>> store_;  ///< [variant][cell]
  Engine engine_;
  std::size_t detections_ = 0;
};

}  // namespace redundancy::techniques
