// The workload model the benchmark owns: the computation every variant
// performs, the faults injected into the variants, and the answer each
// request must therefore get. Because the benchmark builds the faults
// itself, it can predict every response before sending the request.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/result.hpp"
#include "core/variant.hpp"
#include "core/voters.hpp"
#include "faults/fault.hpp"
#include "logic.hpp"
#include "spans.hpp"

namespace perfbench::model {

using Key = std::uint64_t;

/// The demo computation: a 64-round iterated hash chain (cheap,
/// deterministic, not foldable by the optimizer).
[[nodiscard]] inline std::uint64_t chain(std::uint64_t x) {
  for (int i = 0; i < 64; ++i) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
  }
  return x;
}

/// Keys carry the request id in their low 32 bits, so a variant running on
/// any pool thread can attribute its span to the request.
[[nodiscard]] inline Key key_with_id(std::uint64_t tag, std::uint32_t id) {
  return (tag << 32) | id;
}
[[nodiscard]] inline std::uint32_t id_of(Key key) {
  return static_cast<std::uint32_t>(key & 0xffffffffu);
}

// ---------------------------------------------------------------------------
// Voting versions (/vote and the campaign): three hash-chain versions, each
// with an independent input-deterministic Bohrbug that returns a distinct
// wrong value on kVersionFaultShare of the keys.

inline constexpr std::size_t kVersions = 3;
inline constexpr double kVersionFaultShare = 0.03;
inline constexpr std::uint64_t kVersionSalt[kVersions] = {
    0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL, 0x165667b19e3779f9ULL};

[[nodiscard]] inline bool version_faulty(std::size_t version, Key key) {
  return redundancy::faults::input_position(key, kVersionSalt[version]) <
         kVersionFaultShare;
}

/// The majority verdict the three versions must reach: the golden value
/// when at most one version is faulty on `key`, else no quorum (the wrong
/// values all differ, so no two of them agree).
[[nodiscard]] inline Expected predicted_vote(Key key) {
  std::size_t faulty = 0;
  for (std::size_t v = 0; v < kVersions; ++v) faulty += version_faulty(v, key);
  if (faulty <= 1) return {200, chain(key)};
  return {500, 0};
}

/// The id of the request whose voter runs on this thread.
inline thread_local std::uint32_t t_request_id = 0;

/// The three versions, each wrapped in faults::FaultInjector and timed as a
/// core.variant span when recording is on.
[[nodiscard]] inline std::vector<redundancy::core::Variant<Key, Key>>
voting_versions(spans::Route route) {
  namespace faults = redundancy::faults;
  std::vector<redundancy::core::Variant<Key, Key>> out;
  for (std::size_t v = 0; v < kVersions; ++v) {
    auto injector = std::make_shared<faults::FaultInjector<Key, Key>>(
        "chain/v" + std::to_string(v + 1), [](const Key& k) { return chain(k); });
    injector->add(faults::bohrbug<Key, Key>(
        "bohrbug", kVersionFaultShare, kVersionSalt[v],
        redundancy::core::FailureKind::wrong_output,
        faults::skewed<Key, Key>(v + 1)));
    out.push_back(redundancy::core::make_variant<Key, Key>(
        injector->name(), [injector, route](const Key& key) {
          if (!spans::enabled()) return (*injector)(key);
          const std::uint64_t t0 = spans::now_ns();
          redundancy::core::Result<Key> r = (*injector)(key);
          spans::record(id_of(key), spans::Name::core_variant, route, t0,
                        spans::now_ns());
          return r;
        }));
  }
  return out;
}

/// core::majority_voter wrapped so each adjudication is a core.voter span.
[[nodiscard]] inline redundancy::core::Voter<Key> timed_majority(
    spans::Route route) {
  auto inner = std::make_shared<redundancy::core::Voter<Key>>(
      redundancy::core::majority_voter<Key>());
  return [inner, route](const std::vector<redundancy::core::Ballot<Key>>& b) {
    if (!spans::enabled()) return (*inner)(b);
    const std::uint64_t t0 = spans::now_ns();
    redundancy::core::Result<Key> r = (*inner)(b);
    spans::record(t_request_id, spans::Name::core_voter, route, t0,
                  spans::now_ns());
    return r;
  };
}

// ---------------------------------------------------------------------------
// Hedged alternatives (/fast): the primary crashes on kPrimaryCrashShare of
// the keys and spins for kPrimarySpinNs (far past the hedge budget) on
// kPrimarySpinShare of them; the alternate is always right. /fast
// therefore always answers the golden value.

inline constexpr double kPrimaryCrashShare = 0.02;
inline constexpr double kPrimarySpinShare = 0.001;
inline constexpr std::uint64_t kPrimarySpinNs = 2'000'000;
inline constexpr std::uint64_t kCrashSalt = 0x94d049bb133111ebULL;
inline constexpr std::uint64_t kSpinSalt = 0xbf58476d1ce4e5b9ULL;

[[nodiscard]] inline bool primary_crashes(Key key) {
  return redundancy::faults::input_position(key, kCrashSalt) <
         kPrimaryCrashShare;
}
[[nodiscard]] inline bool primary_spins(Key key) {
  return !primary_crashes(key) &&
         redundancy::faults::input_position(key, kSpinSalt) < kPrimarySpinShare;
}

[[nodiscard]] inline Expected predicted_fast(Key key) {
  return {200, chain(key)};
}

[[nodiscard]] inline std::vector<redundancy::core::Variant<Key, Key>>
hedged_alternatives() {
  std::vector<redundancy::core::Variant<Key, Key>> out;
  out.push_back(redundancy::core::make_variant<Key, Key>(
      "chain/primary", [](const Key& key) -> redundancy::core::Result<Key> {
        if (primary_crashes(key)) {
          return redundancy::core::failure(
              redundancy::core::FailureKind::crash, "primary crashed",
              redundancy::core::FaultClass::bohrbug);
        }
        if (primary_spins(key)) {
          const std::uint64_t until = spans::now_ns() + kPrimarySpinNs;
          while (spans::now_ns() < until) {
          }
        }
        return chain(key);
      }));
  out.push_back(redundancy::core::make_variant<Key, Key>(
      "chain/alternate",
      [](const Key& key) { return redundancy::core::Result<Key>{chain(key)}; }));
  return out;
}

[[nodiscard]] inline Expected predicted_echo(std::uint32_t id) {
  return {200, id};
}

}  // namespace perfbench::model
