// Property tests for the grouping voters: majority, plurality and
// unanimity, each checked against a scalar reference on randomized
// electorates, including the 16- and 17-ballot electorates on either side
// of the edge where grouping moves from stack arrays to the heap.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/voters.hpp"
#include "util/rng.hpp"

namespace redundancy {
namespace {

using core::Ballot;
using core::FailureKind;
using core::Result;

// ---------------------------------------------------------------------------
// Voters vs a scalar reference
// ---------------------------------------------------------------------------

template <typename Out>
std::vector<Ballot<Out>> make_ballots(std::vector<Result<Out>> results) {
  std::vector<Ballot<Out>> ballots;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string name = "v";
    name += std::to_string(i);
    ballots.push_back({i, std::move(name), std::move(results[i])});
  }
  return ballots;
}

/// Scalar reference strict majority of `n` ballots (failed ones count
/// towards n): a value that more than n/2 of `values` equal.
template <typename Out>
std::optional<Out> reference_majority(const std::vector<Out>& values,
                                      std::size_t n) {
  for (const auto& v : values) {
    std::size_t count = 0;
    for (const auto& w : values) {
      if (v == w) ++count;
    }
    if (count * 2 > n) return v;
  }
  return std::nullopt;
}

/// Scalar reference plurality: count exact-equality groups quadratically.
template <typename Out>
std::optional<Out> reference_plurality(const std::vector<Out>& values) {
  std::size_t best = 0;
  std::size_t best_count = 0;
  bool tie = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::size_t count = 0;
    for (const auto& v : values) {
      if (v == values[i]) ++count;
    }
    if (count > best_count) {
      best = i;
      best_count = count;
      tie = false;
    } else if (count == best_count && !(values[i] == values[best])) {
      tie = true;
    }
  }
  if (best_count == 0 || tie) return std::nullopt;
  return values[best];
}

TEST(VoteKernel, MajorityAgreesWithScalarReferenceOnRandomBlobs) {
  util::Rng rng{1234};
  auto majority = core::majority_voter<std::string>();
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + std::size_t(rng.below(7));  // 3..9
    // 2 or 3 distinct candidate blobs, random length incl. word-boundary
    // straddlers, randomly assigned to ballots.
    const std::size_t distinct = 2 + std::size_t(rng.below(2));
    std::vector<std::string> candidates;
    for (std::size_t c = 0; c < distinct; ++c) {
      const std::size_t len = std::size_t(rng.below(41));
      std::string s;
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(char('a' + int(rng.below(4))));
      }
      candidates.push_back(std::move(s));
    }
    std::vector<std::string> values;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(candidates[std::size_t(rng.below(candidates.size()))]);
    }
    // Reference strict majority: a group with count > n/2.
    const std::optional<std::string> expected = reference_majority(values, n);
    std::vector<Result<std::string>> results;
    for (auto& v : values) results.emplace_back(v);
    auto out = majority(make_ballots<std::string>(std::move(results)));
    ASSERT_EQ(out.has_value(), expected.has_value()) << "trial " << trial;
    if (expected) {
      EXPECT_EQ(out.value(), *expected) << "trial " << trial;
    }
  }
}

TEST(VoteKernel, PluralityAgreesWithScalarReferenceOnRandomBlobs) {
  util::Rng rng{5678};
  auto plurality = core::plurality_voter<std::string>();
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + std::size_t(rng.below(8));  // 2..9
    std::vector<std::string> values;
    for (std::size_t i = 0; i < n; ++i) {
      // Low-entropy candidates make count collisions (ties) common.
      values.push_back(std::string(1 + std::size_t(rng.below(4)),
                                   char('x' + int(rng.below(2)))));
    }
    const auto expected = reference_plurality(values);
    std::vector<Result<std::string>> results;
    for (auto& v : values) results.emplace_back(v);
    auto out = plurality(make_ballots<std::string>(std::move(results)));
    ASSERT_EQ(out.has_value(), expected.has_value()) << "trial " << trial;
    if (expected) {
      EXPECT_EQ(out.value(), *expected) << "trial " << trial;
    }
  }
}

TEST(VoteKernel, UnanimityDetectsSingleByteDivergence) {
  auto unanimity = core::unanimity_voter<std::vector<std::uint8_t>>();
  util::Rng rng{31337};
  for (std::size_t n : {1, 8, 9, 64, 100}) {
    std::vector<std::uint8_t> base(n);
    for (auto& b : base) b = std::uint8_t(rng.below(256));
    // All agree.
    auto ok = unanimity(make_ballots<std::vector<std::uint8_t>>(
        {base, base, base}));
    ASSERT_TRUE(ok.has_value()) << "size " << n;
    EXPECT_EQ(ok.value(), base);
    // One replica one byte off: must be flagged as divergence, and the
    // verdict must never be the corrupted value.
    auto bad = base;
    bad[std::size_t(rng.below(n))] ^= 0x40;
    auto div = unanimity(make_ballots<std::vector<std::uint8_t>>(
        {base, bad, base}));
    ASSERT_FALSE(div.has_value()) << "size " << n;
    EXPECT_EQ(div.error().kind, FailureKind::detected_attack);
  }
}

TEST(VoteKernel, MajorityOnNonByteViewableTypeStillWorks) {
  // 0.0 and -0.0 are equal values with different bytes: the voter must
  // group by the comparator, never by representation.
  auto majority = core::majority_voter<double>();
  const std::vector<double> values{0.0, -0.0, 1.5};
  auto out = majority(make_ballots<double>({values.begin(), values.end()}));
  ASSERT_TRUE(out.has_value());  // 0.0 == -0.0 forms the majority group
  EXPECT_EQ(out.value(), 0.0);
}

// ---------------------------------------------------------------------------
// The stack/heap edge: 16 ballots group on the stack, 17 on the heap
// ---------------------------------------------------------------------------

/// One randomized electorate of `n` ballots: up to `n` distinct values
/// (all distinct on trial 0, so every ballot is its own group), about one
/// ballot in five failed.
struct Electorate {
  std::vector<Result<std::uint64_t>> results;
  std::vector<std::uint64_t> values;  ///< the successful ballots' values
};

Electorate random_electorate(util::Rng& rng, std::size_t n, int trial) {
  const std::size_t distinct = trial == 0 ? n : 1 + std::size_t(rng.below(n));
  Electorate e;
  for (std::size_t i = 0; i < n; ++i) {
    if (trial != 0 && rng.below(5) == 0) {
      e.results.emplace_back(core::failure(FailureKind::crash));
      continue;
    }
    const std::uint64_t v =
        trial == 0 ? i : 1000 + std::uint64_t(rng.below(distinct));
    e.values.push_back(v);
    e.results.emplace_back(v);
  }
  return e;
}

constexpr std::size_t kEdgeSizes[] = {16, 17};

TEST(VoteKernel, MajorityAtTheStackHeapEdge) {
  util::Rng rng{1617};
  auto majority = core::majority_voter<std::uint64_t>();
  for (std::size_t n : kEdgeSizes) {
    for (int trial = 0; trial < 300; ++trial) {
      Electorate e = random_electorate(rng, n, trial);
      const auto expected = reference_majority(e.values, n);
      auto out = majority(make_ballots<std::uint64_t>(std::move(e.results)));
      ASSERT_EQ(out.has_value(), expected.has_value())
          << "n " << n << " trial " << trial;
      if (expected) {
        EXPECT_EQ(out.value(), *expected);
      }
    }
  }
  // A bare majority at each size: 9 of 16 and 9 of 17 agree.
  for (std::size_t n : kEdgeSizes) {
    std::vector<Result<std::uint64_t>> results;
    for (std::size_t i = 0; i < n; ++i) {
      results.emplace_back(i < 9 ? std::uint64_t{7} : std::uint64_t{100 + i});
    }
    auto out = majority(make_ballots<std::uint64_t>(std::move(results)));
    ASSERT_TRUE(out.has_value()) << "n " << n;
    EXPECT_EQ(out.value(), 7u);
  }
}

TEST(VoteKernel, PluralityAtTheStackHeapEdge) {
  util::Rng rng{1716};
  auto plurality = core::plurality_voter<std::uint64_t>();
  for (std::size_t n : kEdgeSizes) {
    for (int trial = 0; trial < 300; ++trial) {
      Electorate e = random_electorate(rng, n, trial);
      const auto expected = reference_plurality(e.values);
      auto out = plurality(make_ballots<std::uint64_t>(std::move(e.results)));
      ASSERT_EQ(out.has_value(), expected.has_value())
          << "n " << n << " trial " << trial;
      if (expected) {
        EXPECT_EQ(out.value(), *expected);
      }
    }
  }
  // The last group seen wins: two ballots agree at the end of an
  // otherwise all-distinct electorate.
  for (std::size_t n : kEdgeSizes) {
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i + 2 < n; ++i) values.push_back(i);
    values.push_back(99);
    values.push_back(99);
    std::vector<Result<std::uint64_t>> results(values.begin(), values.end());
    auto out = plurality(make_ballots<std::uint64_t>(std::move(results)));
    ASSERT_TRUE(out.has_value()) << "n " << n;
    EXPECT_EQ(out.value(), 99u);
  }
}

TEST(VoteKernel, UnanimityAtTheStackHeapEdge) {
  auto unanimity = core::unanimity_voter<std::uint64_t>();
  for (std::size_t n : kEdgeSizes) {
    const std::vector<std::uint64_t> agree(n, 42);
    auto ok =
        unanimity(make_ballots<std::uint64_t>({agree.begin(), agree.end()}));
    ASSERT_TRUE(ok.has_value()) << "n " << n;
    EXPECT_EQ(ok.value(), 42u);
    // One divergent or failed replica anywhere, the last one included, is
    // flagged.
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<Result<std::uint64_t>> diverged(agree.begin(), agree.end());
      diverged[at] = std::uint64_t{43};
      auto div = unanimity(make_ballots<std::uint64_t>(std::move(diverged)));
      ASSERT_FALSE(div.has_value()) << "n " << n << " at " << at;
      EXPECT_EQ(div.error().kind, FailureKind::detected_attack);
      std::vector<Result<std::uint64_t>> failed(agree.begin(), agree.end());
      failed[at] = core::failure(FailureKind::crash);
      auto crash = unanimity(make_ballots<std::uint64_t>(std::move(failed)));
      ASSERT_FALSE(crash.has_value()) << "n " << n << " at " << at;
      EXPECT_EQ(crash.error().kind, FailureKind::detected_attack);
    }
  }
}

}  // namespace
}  // namespace redundancy
