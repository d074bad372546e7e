#include "techniques/nvariant_data.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"

namespace redundancy::techniques {
namespace {

TEST(NVariantData, WriteReadRoundTrip) {
  NVariantStore store{8, 3, 42};
  ASSERT_TRUE(store.write(0, 123).has_value());
  ASSERT_TRUE(store.write(7, -9).has_value());
  EXPECT_EQ(store.read(0).value(), 123);
  EXPECT_EQ(store.read(7).value(), -9);
  EXPECT_EQ(store.read(3).value(), 0);  // untouched cells read as zero
}

TEST(NVariantData, OutOfRangeAccessFails) {
  NVariantStore store{4, 2, 1};
  EXPECT_FALSE(store.write(4, 1).has_value());
  EXPECT_FALSE(store.read(4).has_value());
}

TEST(NVariantData, UniformSmashIsDetected) {
  NVariantStore store{4, 2, 7};
  ASSERT_TRUE(store.write(1, 1000).has_value());
  // The attacker overwrites the cell's physical storage with one raw value
  // in every variant — identical concrete values, different interpretations.
  store.smash_all_variants(1, 0x41414141);
  auto out = store.read(1);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, core::FailureKind::detected_attack);
  EXPECT_EQ(out.error().cause, core::FaultClass::malicious);
  EXPECT_EQ(store.detections(), 1u);
}

TEST(NVariantData, PartialSmashIsDetected) {
  NVariantStore store{4, 3, 7};
  ASSERT_TRUE(store.write(2, 55).has_value());
  store.smash_one_variant(2, 1, 0xdead);
  EXPECT_FALSE(store.read(2).has_value());
}

TEST(NVariantData, OtherCellsUnaffectedBySmash) {
  NVariantStore store{4, 2, 7};
  ASSERT_TRUE(store.write(0, 11).has_value());
  ASSERT_TRUE(store.write(1, 22).has_value());
  store.smash_all_variants(1, 99);
  EXPECT_EQ(store.read(0).value(), 11);
  EXPECT_FALSE(store.read(1).has_value());
}

TEST(NVariantData, LegitimateRewriteClearsOldCorruption) {
  NVariantStore store{2, 2, 7};
  store.smash_all_variants(0, 5);
  EXPECT_FALSE(store.read(0).has_value());
  ASSERT_TRUE(store.write(0, 8).has_value());
  EXPECT_EQ(store.read(0).value(), 8);
}

TEST(NVariantData, SingleVariantDegradesToPlainStorage) {
  // With one variant there is no redundancy: the smash goes undetected and
  // the attacker's raw value is *believed* — the vulnerable baseline.
  NVariantStore store{2, 1, 7};
  ASSERT_TRUE(store.write(0, 1000).has_value());
  store.smash_all_variants(0, 0x41414141);
  auto out = store.read(0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 0x41414141);
  EXPECT_EQ(store.detections(), 0u);
}

TEST(NVariantData, ReadsWriteTechniqueSeries) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  obs::Counter& requests =
      obs::counter(obs::TechniqueCounters::kRequests, "nvariant_data");
  obs::Counter& unrecovered =
      obs::counter(obs::TechniqueCounters::kUnrecovered, "nvariant_data");
  const std::uint64_t requests0 = requests.total();
  const std::uint64_t unrecovered0 = unrecovered.total();
  NVariantStore store{4, 3, 7};
  ASSERT_TRUE(store.write(0, 5).has_value());
  store.smash_all_variants(1, 0x41414141);
  obs::Recorder::instance().set_enabled(true);
  const auto clean = store.read(0);
  const auto smashed = store.read(1);
  obs::Recorder::instance().set_enabled(false);
  ASSERT_TRUE(clean.has_value());
  ASSERT_FALSE(smashed.has_value());
  EXPECT_EQ(requests.total() - requests0, 2u);
  EXPECT_EQ(unrecovered.total() - unrecovered0, 1u);
}

class VariantCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VariantCountTest, DetectionHoldsForAnyWidthAboveOne) {
  NVariantStore store{4, GetParam(), 99};
  ASSERT_TRUE(store.write(0, 77).has_value());
  EXPECT_EQ(store.read(0).value(), 77);
  store.smash_all_variants(0, 123456);
  EXPECT_FALSE(store.read(0).has_value());
}

INSTANTIATE_TEST_SUITE_P(Widths, VariantCountTest,
                         ::testing::Values(2, 3, 4, 5, 8));

TEST(NVariantData, TaxonomyMatchesPaperRow) {
  const auto t = NVariantStore::taxonomy();
  EXPECT_EQ(t.type, core::RedundancyType::data);
  EXPECT_EQ(t.faults, core::TargetFaults::malicious);
  EXPECT_EQ(t.adjudicator, core::AdjudicatorKind::reactive_implicit);
}

}  // namespace
}  // namespace redundancy::techniques
