#include "techniques/nvariant_data.hpp"

#include <string>

namespace redundancy::techniques {

NVariantStore::NVariantStore(std::size_t cells, std::size_t variants,
                             std::uint64_t seed)
    : cells_(cells),
      engine_(decoders(variants), core::unanimity_voter<std::int64_t>()) {
  engine_.set_obs_label("nvariant_data");
  util::Rng rng{seed};
  masks_.reserve(variants);
  store_.reserve(variants);
  for (std::size_t v = 0; v < variants; ++v) {
    // Variant 0 keeps the natural interpretation so that single-variant
    // deployments degrade to plain storage; others get secret masks.
    masks_.push_back(v == 0 ? 0 : rng());
    store_.emplace_back(cells, encode(v, 0));
  }
}

std::int64_t NVariantStore::encode(std::size_t v, std::int64_t value) const {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(value) ^
                                   masks_[v]);
}

std::int64_t NVariantStore::decode(std::size_t v, std::int64_t raw) const {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(raw) ^ masks_[v]);
}

std::vector<core::Variant<std::size_t, std::int64_t>> NVariantStore::decoders(
    std::size_t variants) const {
  std::vector<core::Variant<std::size_t, std::int64_t>> legs;
  for (std::size_t v = 0; v < variants; ++v) {
    legs.push_back(core::make_variant<std::size_t, std::int64_t>(
        "variant-" + std::to_string(v),
        [this, v](const std::size_t& cell) -> core::Result<std::int64_t> {
          return decode(v, store_[v][cell]);
        }));
  }
  return legs;
}

core::Status NVariantStore::write(std::size_t cell, std::int64_t value) {
  if (cell >= cells_) {
    return core::failure(core::FailureKind::crash, "cell out of range");
  }
  for (std::size_t v = 0; v < store_.size(); ++v) {
    store_[v][cell] = encode(v, value);
  }
  return core::ok_status();
}

core::Result<std::int64_t> NVariantStore::read(std::size_t cell) {
  if (cell >= cells_) {
    return core::failure(core::FailureKind::crash, "cell out of range");
  }
  auto verdict = engine_.run(cell);
  if (verdict.has_value() ||
      verdict.error().kind != core::FailureKind::detected_attack) {
    return verdict;
  }
  ++detections_;
  return core::failure(core::FailureKind::detected_attack,
                       "variant interpretations disagree",
                       core::FaultClass::malicious);
}

void NVariantStore::smash_all_variants(std::size_t cell, std::int64_t raw) {
  if (cell >= cells_) return;
  for (auto& variant : store_) variant[cell] = raw;
}

void NVariantStore::smash_one_variant(std::size_t cell, std::size_t v,
                                      std::int64_t raw) {
  if (cell >= cells_ || v >= store_.size()) return;
  store_[v][cell] = raw;
}

}  // namespace redundancy::techniques
