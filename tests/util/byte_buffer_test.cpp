#include "util/byte_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace redundancy::util {
namespace {

TEST(ByteBuffer, PutGetRoundTrip) {
  ByteBuffer buf;
  buf.put(std::uint32_t{0xDEADBEEF});
  buf.put(std::int64_t{-42});
  buf.put(3.5);
  buf.put_string("checkpoint");
  auto r = buf.reader();
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_EQ(r.get<double>(), 3.5);
  EXPECT_EQ(r.get_string(), "checkpoint");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, PutBytesAppendsVerbatim) {
  ByteBuffer buf;
  buf.put(std::uint8_t{7});
  std::vector<std::byte> blob(13);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i * 3 + 1);
  }
  buf.put_bytes(blob);
  ASSERT_EQ(buf.size(), 1 + blob.size());
  EXPECT_EQ(std::memcmp(buf.data() + 1, blob.data(), blob.size()), 0);
}

TEST(ByteBuffer, PutBytesEmptySpanIsANoOp) {
  ByteBuffer buf;
  buf.put_bytes(std::span<const std::byte>{});
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ByteBuffer, PutStringMakesOneGrowthDecision) {
  // put_string reserves prefix + payload up front, so the appends must not
  // reallocate: capacity after the call covers exactly what was written.
  ByteBuffer buf;
  const std::string s(100, 'x');
  buf.put_string(s);
  EXPECT_EQ(buf.size(), sizeof(std::uint32_t) + s.size());
  auto r = buf.reader();
  EXPECT_EQ(r.get_string(), s);
}

TEST(ByteBuffer, ReserveAvoidsIncrementalReallocation) {
  ByteBuffer buf;
  buf.reserve(64 * 1024);
  const std::byte* before = buf.data();
  std::vector<std::byte> chunk(1024, std::byte{0x5A});
  for (int i = 0; i < 64; ++i) buf.put_bytes(chunk);
  EXPECT_EQ(buf.size(), 64u * 1024u);
  // A sufficient reserve means the backing store never moved.
  EXPECT_EQ(buf.data(), before);
}

TEST(ByteBuffer, GrowsGeometricallyPastReserve) {
  ByteBuffer buf;
  std::vector<std::byte> chunk(4096, std::byte{1});
  for (int i = 0; i < 100; ++i) buf.put_bytes(chunk);
  EXPECT_EQ(buf.size(), 100u * 4096u);
  for (std::size_t i = 0; i < buf.size(); i += 4096) {
    EXPECT_EQ(buf.data()[i], std::byte{1});
  }
}

TEST(ByteBuffer, EqualityIsWordwiseOnContents) {
  ByteBuffer a;
  ByteBuffer b;
  EXPECT_TRUE(a == b);  // both empty
  a.put_string("same bytes");
  b.put_string("same bytes");
  EXPECT_TRUE(a == b);
  ByteBuffer c;
  c.put_string("same byteZ");
  EXPECT_FALSE(a == c);
  ByteBuffer shorter;
  shorter.put(std::uint32_t{10});
  EXPECT_FALSE(a == shorter);  // size mismatch
}

TEST(ByteBuffer, ReaderThrowsOnTruncatedRead) {
  ByteBuffer buf;
  buf.put(std::uint16_t{1});
  auto r = buf.reader();
  EXPECT_THROW((void)r.get<std::uint64_t>(), std::out_of_range);
  // The length prefix may decode, but the payload is missing.
  ByteBuffer lying;
  lying.put(std::uint32_t{100});  // claims a 100-byte string follows
  auto r2 = lying.reader();
  EXPECT_THROW((void)r2.get_string(), std::out_of_range);
}

TEST(ByteBuffer, ConstructFromExistingBytes) {
  std::vector<std::byte> raw(8, std::byte{0x11});
  ByteBuffer buf{raw};
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.bytes(), raw);
}

// ---------------------------------------------------------------------------
// operator== (a size check, then memcmp) on random contents, every
// single-byte corruption, and payloads at every offset
// ---------------------------------------------------------------------------

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.below(256));
  }
  return out;
}

TEST(ByteBufferEquality, MatchesScalarOnRandomSizes) {
  Rng rng{20250805};
  // Every length 0..96, then some larger blobs.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 96; ++n) sizes.push_back(n);
  for (std::size_t n : {127, 128, 129, 1000, 4096, 10000}) sizes.push_back(n);
  for (std::size_t n : sizes) {
    const auto a = random_bytes(rng, n);
    const auto b = a;  // identical copy
    EXPECT_TRUE(ByteBuffer{a} == ByteBuffer{b}) << "size " << n;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(ByteBufferEquality, DetectsEverySingleByteCorruption) {
  Rng rng{42};
  for (std::size_t n : {1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 257, 1024}) {
    const auto a = random_bytes(rng, n);
    const ByteBuffer original{a};
    for (std::size_t pos = 0; pos < n; ++pos) {
      auto b = a;
      b[pos] ^= std::byte{0x01};  // minimal flip: one bit of one byte
      EXPECT_FALSE(original == ByteBuffer{b})
          << "size " << n << " corrupted at " << pos;
    }
  }
}

TEST(ByteBufferEquality, PayloadsAtEveryOffsetCompareCorrectly) {
  // A buffer owns its storage, so instead of misaligned views the 777-byte
  // payload is copied from every offset 0..15 of a shared backing and
  // starts at that offset inside the buffer, after as many filler bytes.
  Rng rng{7};
  const auto backing = random_bytes(rng, 4096 + 16);
  for (std::size_t off = 0; off < 16; ++off) {
    const std::span<const std::byte> payload{backing.data() + off, 777};
    std::vector<std::byte> bytes(off, std::byte{0x5A});
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    const ByteBuffer a{bytes};
    EXPECT_TRUE(a == ByteBuffer{bytes}) << "offset " << off;
    bytes[off + 500] ^= std::byte{0x80};
    EXPECT_FALSE(a == ByteBuffer{bytes}) << "offset " << off;
  }
}

TEST(ByteBufferEquality, SizeMismatchNeverEqual) {
  Rng rng{3};
  const auto a = random_bytes(rng, 64);
  std::vector<std::byte> b(a.begin(), a.begin() + 63);
  EXPECT_FALSE(ByteBuffer{a} == ByteBuffer{b});
}

}  // namespace
}  // namespace redundancy::util
