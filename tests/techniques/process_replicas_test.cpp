#include "techniques/process_replicas.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "obs/obs.hpp"
#include "vm/attacks.hpp"

namespace redundancy::techniques {
namespace {

using vm::ServerLayout;

ProcessReplicas make_replicas(ProcessReplicas::Options opts) {
  return ProcessReplicas{
      vm::vulnerable_server(), opts,
      [](vm::Vm& machine, std::size_t base) {
        (void)machine.poke(base + ServerLayout::secret, vm::kSecretValue);
      }};
}

TEST(ProcessReplicas, BenignRequestsBehaveIdentically) {
  auto replicas = make_replicas({.replicas = 3});
  for (int i = 0; i < 20; ++i) {
    auto out = replicas.serve(vm::benign_request(i, 100 - i));
    ASSERT_TRUE(out.has_value()) << out.error().describe();
    EXPECT_EQ(out.value().ret, 100);
    replicas.reset();
  }
  EXPECT_EQ(replicas.detections(), 0u);
}

TEST(ProcessReplicas, AbsoluteAddressAttackDetectedByPartitioning) {
  auto replicas = make_replicas(
      {.replicas = 2, .partition_addresses = true, .tag_instructions = false});
  const auto attack =
      vm::absolute_address_attack(replicas.partitions()[0].base);
  auto out = replicas.serve(attack);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, core::FailureKind::detected_attack);
  EXPECT_EQ(replicas.detections(), 1u);
}

TEST(ProcessReplicas, AttackRequestWritesTechniqueUnrecovered) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  obs::Counter& requests =
      obs::counter(obs::TechniqueCounters::kRequests, "process_replicas");
  obs::Counter& unrecovered =
      obs::counter(obs::TechniqueCounters::kUnrecovered, "process_replicas");
  const std::uint64_t requests0 = requests.total();
  const std::uint64_t unrecovered0 = unrecovered.total();
  auto replicas = make_replicas(
      {.replicas = 2, .partition_addresses = true, .tag_instructions = false});
  const std::size_t base = replicas.partitions()[0].base;
  obs::Recorder::instance().set_enabled(true);
  const auto attack = replicas.serve(vm::absolute_address_attack(base));
  replicas.reset();
  const auto benign = replicas.serve(vm::benign_request(1, 2));
  obs::Recorder::instance().set_enabled(false);
  ASSERT_FALSE(attack.has_value());
  ASSERT_TRUE(benign.has_value());
  EXPECT_EQ(requests.total() - requests0, 2u);
  EXPECT_EQ(unrecovered.total() - unrecovered0, 1u);
}

TEST(ProcessReplicas, SampledAttackIsOneVerdictOverEveryReplicaLeg) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  auto replicas = make_replicas({.replicas = 3});
  const std::size_t base = replicas.partitions()[0].base;
  auto& recorder = obs::Recorder::instance();
  auto sink = std::make_shared<obs::CollectingSink>();
  recorder.clear_sinks();
  recorder.set_sample_every(1);
  recorder.add_sink(sink);
  recorder.set_enabled(true);
  const auto out = replicas.serve(vm::absolute_address_attack(base));
  recorder.flush();
  recorder.set_enabled(false);
  recorder.clear_sinks();
  ASSERT_FALSE(out.has_value());

  ASSERT_EQ(sink->adjudications().size(), 1u);
  const obs::AdjudicationEvent& verdict = sink->adjudications()[0];
  EXPECT_EQ(verdict.technique, "process_replicas");
  EXPECT_EQ(verdict.electorate, 3u);
  EXPECT_FALSE(verdict.accepted);
  const obs::SpanRecord* pattern = nullptr;
  for (const auto& span : sink->spans()) {
    if (span.span_id == verdict.parent_id) pattern = &span;
  }
  ASSERT_NE(pattern, nullptr);
  EXPECT_EQ(pattern->name, "process_replicas");
  std::multiset<std::string> legs;
  for (const auto& span : sink->spans()) {
    if (span.parent_id != pattern->span_id) continue;
    EXPECT_EQ(span.name, "variant");
    legs.insert(span.detail);
  }
  EXPECT_EQ(legs, (std::multiset<std::string>{"replica-0", "replica-1",
                                              "replica-2"}));
}

TEST(ProcessReplicas, CodeInjectionDetectedByTagging) {
  auto replicas = make_replicas(
      {.replicas = 2, .partition_addresses = false, .tag_instructions = true});
  // Attacker knows the layout (no partitioning) and guesses replica 0's tag.
  auto out = replicas.serve(vm::code_injection_attack(0, 1));
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, core::FailureKind::detected_attack);
}

TEST(ProcessReplicas, UnprotectedSingleReplicaIsCompromised) {
  auto victim = make_replicas(
      {.replicas = 1, .partition_addresses = false, .tag_instructions = false});
  auto out = victim.serve(vm::absolute_address_attack(0));
  // One replica, no diversity: the attack output is accepted as valid.
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value().ret, vm::kSecretValue);
  EXPECT_EQ(victim.detections(), 0u);
}

TEST(ProcessReplicas, UndiversifiedReplicasMissTheAttack) {
  // Replication without diversification: both replicas are compromised the
  // same way, behaviours agree, nothing is detected — diversity, not
  // replication, is what defends.
  auto replicas = make_replicas(
      {.replicas = 2, .partition_addresses = false, .tag_instructions = false});
  auto out = replicas.serve(vm::absolute_address_attack(0));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value().ret, vm::kSecretValue);
  EXPECT_EQ(replicas.detections(), 0u);
}

TEST(ProcessReplicas, TaggingAloneMissesAbsoluteAddressAttacks) {
  // The leak gadget is legitimate (properly tagged) code, so tagging does
  // not catch a pure control-flow redirect; Cox's mechanisms are
  // complementary, not interchangeable.
  auto replicas = make_replicas(
      {.replicas = 2, .partition_addresses = false, .tag_instructions = true});
  auto out = replicas.serve(vm::absolute_address_attack(0));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value().ret, vm::kSecretValue);
}

TEST(ProcessReplicas, FullDiversityCatchesBothAttacks) {
  auto replicas = make_replicas({.replicas = 3});
  const auto base0 = replicas.partitions()[0].base;
  EXPECT_FALSE(replicas.serve(vm::absolute_address_attack(base0)).has_value());
  replicas.reset();
  EXPECT_FALSE(
      replicas.serve(vm::code_injection_attack(base0, 1)).has_value());
  EXPECT_EQ(replicas.detections(), 2u);
}

TEST(ProcessReplicas, ResetRestoresPristineState) {
  auto replicas = make_replicas({.replicas = 2});
  const auto base0 = replicas.partitions()[0].base;
  (void)replicas.serve(vm::absolute_address_attack(base0));
  replicas.reset();
  auto out = replicas.serve(vm::benign_request(1, 2));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value().ret, 3);
}

TEST(ProcessReplicas, PartitionsAreDisjoint) {
  auto replicas = make_replicas({.replicas = 4});
  const auto& parts = replicas.partitions();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      EXPECT_FALSE(parts[i].overlaps(parts[j]));
    }
  }
}

TEST(ProcessReplicas, TaxonomyMatchesPaperRow) {
  const auto t = ProcessReplicas::taxonomy();
  EXPECT_EQ(t.type, core::RedundancyType::environment);
  EXPECT_EQ(t.adjudicator, core::AdjudicatorKind::reactive_implicit);
  EXPECT_EQ(t.faults, core::TargetFaults::malicious);
}

}  // namespace
}  // namespace redundancy::techniques
