// Strict parsing for numeric REDUNDANCY_* environment knobs.
#pragma once

#include <cstdint>
#include <optional>

namespace redundancy::util {

/// `raw` as a decimal integer in [min, max] (max well below 2^64 / 10):
/// digits only — no sign, whitespace, prefix or suffix. nullopt for anything
/// else, so a typo'd knob is rejected whole instead of half-read; callers
/// print the rejection and fall back loudly.
[[nodiscard]] inline std::optional<std::uint64_t> parse_decimal(
    const char* raw, std::uint64_t min, std::uint64_t max) noexcept {
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  std::uint64_t value = 0;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(*p - '0');
    if (value > max) return std::nullopt;
  }
  if (value < min) return std::nullopt;
  return value;
}

}  // namespace redundancy::util
