// Property tests for the vectorized adjudication kernels: the word-wise
// equality/hash primitives (util/wordwise.hpp), the arena scratch they
// vote with (util/arena.hpp), and the digest-prepass voters themselves —
// each checked against a scalar reference on randomized sizes, alignments
// and corruptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/voters.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/wordwise.hpp"

namespace redundancy {
namespace {

using core::Ballot;
using core::FailureKind;
using core::Result;

std::vector<std::byte> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.below(256));
  }
  return out;
}

// ---------------------------------------------------------------------------
// wordwise::equal vs the scalar reference
// ---------------------------------------------------------------------------

TEST(WordwiseEqual, MatchesScalarOnRandomSizes) {
  util::Rng rng{20250805};
  // Sweep every length around the kernel's block boundaries (0..96 covers
  // the 32-byte block loop, the 8-byte word loop, and the overlapping
  // tail) plus some larger blobs.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 96; ++n) sizes.push_back(n);
  for (std::size_t n : {127, 128, 129, 1000, 4096, 10000}) sizes.push_back(n);
  for (std::size_t n : sizes) {
    const auto a = random_bytes(rng, n);
    const auto b = a;  // identical copy
    EXPECT_TRUE(util::wordwise::equal(a, b)) << "size " << n;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(WordwiseEqual, DetectsEverySingleByteCorruption) {
  util::Rng rng{42};
  for (std::size_t n : {1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 257, 1024}) {
    const auto a = random_bytes(rng, n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      auto b = a;
      b[pos] ^= std::byte{0x01};  // minimal flip: one bit of one byte
      EXPECT_FALSE(util::wordwise::equal(a, b))
          << "size " << n << " corrupted at " << pos;
    }
  }
}

TEST(WordwiseEqual, MisalignedViewsCompareCorrectly) {
  // Slice a shared arena at every offset 0..15 so the kernel sees data()
  // pointers of every alignment class; memcpy-based loads must not care.
  util::Rng rng{7};
  const auto backing = random_bytes(rng, 4096 + 16);
  for (std::size_t off = 0; off < 16; ++off) {
    std::span<const std::byte> a{backing.data() + off, 777};
    std::vector<std::byte> copy(a.begin(), a.end());
    EXPECT_TRUE(util::wordwise::equal(a, std::span<const std::byte>{copy}))
        << "offset " << off;
    copy[500] ^= std::byte{0x80};
    EXPECT_FALSE(util::wordwise::equal(a, std::span<const std::byte>{copy}))
        << "offset " << off;
  }
}

TEST(WordwiseEqual, SizeMismatchNeverEqual) {
  util::Rng rng{3};
  const auto a = random_bytes(rng, 64);
  std::vector<std::byte> b(a.begin(), a.begin() + 63);
  EXPECT_FALSE(util::wordwise::equal(std::span<const std::byte>{a},
                                     std::span<const std::byte>{b}));
}

// ---------------------------------------------------------------------------
// hash64: the digest prepass is only sound if equal values always collide
// ---------------------------------------------------------------------------

TEST(WordwiseHash, EqualValuesAlwaysShareADigest) {
  util::Rng rng{99};
  for (std::size_t n : {0, 1, 5, 8, 16, 31, 32, 100, 1000}) {
    const auto a = random_bytes(rng, n);
    const auto b = a;
    EXPECT_EQ(util::wordwise::hash64(a), util::wordwise::hash64(b))
        << "size " << n;
  }
}

TEST(WordwiseHash, TailBytesBeyondLengthDoNotLeakIn) {
  // Two equal 5-byte values embedded in different surrounding garbage:
  // the zero-padded tail word must mask the neighbours out.
  std::vector<std::byte> buf1(16, std::byte{0xAA});
  std::vector<std::byte> buf2(16, std::byte{0x55});
  const std::byte payload[5] = {std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}, std::byte{5}};
  std::memcpy(buf1.data(), payload, 5);
  std::memcpy(buf2.data(), payload, 5);
  const std::span<const std::byte> a{buf1.data(), 5};
  const std::span<const std::byte> b{buf2.data(), 5};
  EXPECT_EQ(util::wordwise::hash64(a), util::wordwise::hash64(b));
  EXPECT_TRUE(util::wordwise::equal(a, b));
}

TEST(WordwiseHash, LengthParticipatesInTheDigest) {
  // All-zero blobs of different lengths must not collide trivially.
  std::vector<std::byte> z(64, std::byte{0});
  const auto h8 = util::wordwise::hash64(std::span<const std::byte>{z.data(), 8});
  const auto h16 =
      util::wordwise::hash64(std::span<const std::byte>{z.data(), 16});
  EXPECT_NE(h8, h16);
}

// ---------------------------------------------------------------------------
// Voters on byte-viewable payloads vs a scalar reference
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
    std::optional<std::string> expected;
    for (const auto& v : values) {
      std::size_t count = 0;
      for (const auto& w : values) {
        if (v == w) ++count;
      }
      if (count * 2 > n) {
        expected = v;
        break;
      }
    }
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
  // double has identical-value representations that differ (±0.0), so it
  // is excluded from the word-wise path; the scalar path must serve it.
  auto majority = core::majority_voter<double>();
  const std::vector<double> values{0.0, -0.0, 1.5};
  auto out = majority(make_ballots<double>({values.begin(), values.end()}));
  ASSERT_TRUE(out.has_value());  // 0.0 == -0.0 forms the majority group
  EXPECT_EQ(out.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Arena scratch
// ---------------------------------------------------------------------------

TEST(Arena, AllocationsAreDisjointAndZeroed) {
  util::Arena arena{128};
  auto a = arena.alloc_array<std::uint64_t>(10);
  auto b = arena.alloc_array<std::uint64_t>(10);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 10u);
  EXPECT_NE(a.data(), b.data());
  for (auto v : a) EXPECT_EQ(v, 0u);
  std::fill(a.begin(), a.end(), 0xAAu);
  for (auto v : b) EXPECT_EQ(v, 0u) << "neighbouring allocation clobbered";
}

TEST(Arena, GrowsBeyondInitialBlock) {
  util::Arena arena{64};
  auto big = arena.alloc_array<std::uint8_t>(10'000);
  ASSERT_EQ(big.size(), 10'000u);
  big[9'999] = 42;
  EXPECT_GE(arena.capacity(), 10'000u);
}

TEST(Arena, MarkerReleaseReusesMemory) {
  util::Arena arena{1024};
  const auto mark = arena.mark();
  auto first = arena.alloc_array<std::uint32_t>(8);
  first[0] = 7;
  arena.release_to(mark);
  auto second = arena.alloc_array<std::uint32_t>(8);
  // Stack discipline: the released region is handed out again...
  EXPECT_EQ(static_cast<void*>(first.data()),
            static_cast<void*>(second.data()));
  // ...and re-zeroed for the new owner.
  EXPECT_EQ(second[0], 0u);
}

TEST(Arena, ScopeRestoresOnExit) {
  util::Arena arena{1024};
  const std::size_t before = arena.bytes_used();
  {
    util::ArenaScope scope{arena};
    (void)arena.alloc_array<std::uint64_t>(32);
    EXPECT_GT(arena.bytes_used(), before);
  }
  EXPECT_EQ(arena.bytes_used(), before);
}

TEST(Arena, AlignmentIsHonoured) {
  util::Arena arena{256};
  (void)arena.allocate(1, 1);  // misalign the cursor
  void* p = arena.allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
}

}  // namespace
}  // namespace redundancy
