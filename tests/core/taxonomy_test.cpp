// Verifies that the taxonomy entries the implementations declare reproduce
// the paper's Table 2 — row order, and all four dimension cells per row —
// and that each row's Pattern cell is the Figure-1 pattern its class runs.
#include <gtest/gtest.h>

#include <optional>

#include "core/registry.hpp"
#include "techniques/checkpoint_recovery.hpp"
#include "techniques/data_diversity.hpp"
#include "techniques/genetic_repair.hpp"
#include "techniques/microreboot.hpp"
#include "techniques/nvariant_data.hpp"
#include "techniques/nvp.hpp"
#include "techniques/process_replicas.hpp"
#include "techniques/recovery_blocks.hpp"
#include "techniques/rejuvenation.hpp"
#include "techniques/robust_data.hpp"
#include "techniques/rule_engine.hpp"
#include "techniques/rx.hpp"
#include "techniques/self_checking.hpp"
#include "techniques/self_optimizing.hpp"
#include "techniques/service_substitution.hpp"
#include "techniques/workarounds.hpp"
#include "techniques/wrappers.hpp"

namespace redundancy::core {
namespace {

struct Row {
  const char* name;
  Intention intention;
  RedundancyType type;
  AdjudicatorKind adjudicator;
  TargetFaults faults;
};

// The published Table 2, transcribed row by row.
constexpr Row kPaperTable2[] = {
    {"N-version programming", Intention::deliberate, RedundancyType::code,
     AdjudicatorKind::reactive_implicit, TargetFaults::development},
    {"Recovery blocks", Intention::deliberate, RedundancyType::code,
     AdjudicatorKind::reactive_explicit, TargetFaults::development},
    {"Self-checking programming", Intention::deliberate, RedundancyType::code,
     AdjudicatorKind::reactive_hybrid, TargetFaults::development},
    {"Self-optimizing code", Intention::deliberate, RedundancyType::code,
     AdjudicatorKind::reactive_explicit, TargetFaults::development},
    {"Exception handling, rule engines", Intention::deliberate,
     RedundancyType::code, AdjudicatorKind::reactive_explicit,
     TargetFaults::development},
    {"Wrappers", Intention::deliberate, RedundancyType::code,
     AdjudicatorKind::preventive, TargetFaults::bohrbugs_and_malicious},
    {"Robust data structures, audits", Intention::deliberate,
     RedundancyType::data, AdjudicatorKind::reactive_implicit,
     TargetFaults::development},
    {"Data diversity", Intention::deliberate, RedundancyType::data,
     AdjudicatorKind::reactive_hybrid, TargetFaults::development},
    {"Data diversity for security", Intention::deliberate,
     RedundancyType::data, AdjudicatorKind::reactive_implicit,
     TargetFaults::malicious},
    {"Rejuvenation", Intention::deliberate, RedundancyType::environment,
     AdjudicatorKind::preventive, TargetFaults::heisenbugs},
    {"Environment perturbation", Intention::deliberate,
     RedundancyType::environment, AdjudicatorKind::reactive_explicit,
     TargetFaults::development},
    {"Process replicas", Intention::deliberate, RedundancyType::environment,
     AdjudicatorKind::reactive_implicit, TargetFaults::malicious},
    {"Dynamic service substitution", Intention::opportunistic,
     RedundancyType::code, AdjudicatorKind::reactive_explicit,
     TargetFaults::development},
    {"Fault fixing, genetic programming", Intention::opportunistic,
     RedundancyType::code, AdjudicatorKind::reactive_explicit,
     TargetFaults::bohrbugs},
    {"Automatic workarounds", Intention::opportunistic, RedundancyType::code,
     AdjudicatorKind::reactive_explicit, TargetFaults::development},
    {"Checkpoint-recovery", Intention::opportunistic,
     RedundancyType::environment, AdjudicatorKind::reactive_explicit,
     TargetFaults::heisenbugs},
    {"Reboot and micro-reboot", Intention::opportunistic,
     RedundancyType::environment, AdjudicatorKind::reactive_explicit,
     TargetFaults::heisenbugs},
};

class Table2Test : public ::testing::Test {
 protected:
  void SetUp() override { register_all_techniques(); }
};

TEST_F(Table2Test, AllSeventeenRowsRegistered) {
  EXPECT_EQ(TechniqueRegistry::instance().size(), std::size(kPaperTable2));
}

TEST_F(Table2Test, RowOrderMatchesPaper) {
  const auto& entries = TechniqueRegistry::instance().entries();
  ASSERT_EQ(entries.size(), std::size(kPaperTable2));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].name, kPaperTable2[i].name) << "row " << i;
  }
}

TEST_F(Table2Test, EveryCellMatchesPaper) {
  for (const Row& row : kPaperTable2) {
    auto entry = TechniqueRegistry::instance().find(row.name);
    ASSERT_TRUE(entry.has_value()) << row.name;
    EXPECT_EQ(entry->intention, row.intention) << row.name;
    EXPECT_EQ(entry->type, row.type) << row.name;
    EXPECT_EQ(entry->adjudicator, row.adjudicator) << row.name;
    EXPECT_EQ(entry->faults, row.faults) << row.name;
    EXPECT_FALSE(entry->summary.empty()) << row.name;
  }
}

// The Pattern column is this repo's addition, not the paper's. A class that
// runs on a Figure-1 pattern class names it as its Engine; one that does
// not runs no Figure-1 pattern and may claim only an intra-component or
// environment-level placement.
struct ClassRow {
  TaxonomyEntry entry;
  std::optional<ArchitecturalPattern> runs;  ///< its Engine's pattern
};

template <typename Technique>
ClassRow row_of() {
  if constexpr (requires { Technique::Engine::kPattern; }) {
    return {Technique::taxonomy(), Technique::Engine::kPattern};
  } else {
    return {Technique::taxonomy(), std::nullopt};
  }
}

bool is_figure1(ArchitecturalPattern p) {
  return p == ArchitecturalPattern::parallel_evaluation ||
         p == ArchitecturalPattern::parallel_selection ||
         p == ArchitecturalPattern::sequential_alternatives;
}

TEST_F(Table2Test, PatternCellIsThePatternClassThatRuns) {
  using namespace redundancy::techniques;
  const ClassRow rows[] = {
      row_of<NVersionProgramming<int, int>>(),
      row_of<RecoveryBlocks<int, int>>(),
      row_of<SelfCheckingProgramming<int, int>>(),
      row_of<SelfOptimizing>(),
      row_of<RuleEngine>(),
      row_of<HeapHealer>(),
      row_of<RobustList>(),
      row_of<RetryBlock<int, int>>(),
      row_of<NVariantStore>(),
      {rejuvenation_taxonomy(), std::nullopt},  // a policy, not a class
      row_of<RxRecovery>(),
      row_of<ProcessReplicas>(),
      row_of<ServiceSubstitution>(),
      row_of<GeneticRepair>(),
      row_of<AutomaticWorkarounds>(),
      row_of<CheckpointRecovery>(),
      row_of<MicrorebootContainer>(),
  };
  const auto& registered = TechniqueRegistry::instance().entries();
  ASSERT_EQ(registered.size(), std::size(rows));
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const TaxonomyEntry& entry = rows[i].entry;
    EXPECT_TRUE(entry == registered[i]) << "row " << i << ": " << entry.name;
    const std::string_view claims = to_string(entry.pattern);
    if (rows[i].runs) {
      EXPECT_EQ(entry.pattern, *rows[i].runs)
          << entry.name << " claims " << claims << " but runs "
          << to_string(*rows[i].runs);
    } else {
      EXPECT_FALSE(is_figure1(entry.pattern))
          << entry.name << " claims " << claims
          << " but runs no pattern class";
    }
  }
}

TEST_F(Table2Test, RegistrationIsIdempotent) {
  register_all_techniques();
  register_all_techniques();
  EXPECT_EQ(TechniqueRegistry::instance().size(), std::size(kPaperTable2));
}

TEST_F(Table2Test, FindUnknownReturnsNullopt) {
  EXPECT_FALSE(TechniqueRegistry::instance().find("no such technique"));
}

TEST(Table1, DimensionsMatchPaper) {
  const auto dims = table1_dimensions();
  EXPECT_EQ(dims.intentions, (std::vector<std::string>{"deliberate",
                                                       "opportunistic"}));
  EXPECT_EQ(dims.types,
            (std::vector<std::string>{"code", "data", "environment"}));
  EXPECT_EQ(dims.adjudicators.size(), 3u);
  EXPECT_EQ(dims.faults.size(), 3u);
}

TEST(TaxonomyNames, PaperCellsRenderLikeTheTable) {
  EXPECT_EQ(paper_cell(AdjudicatorKind::reactive_hybrid),
            "reactive expl./impl.");
  EXPECT_EQ(paper_cell(TargetFaults::bohrbugs_and_malicious),
            "Bohrbugs, malicious");
  EXPECT_EQ(to_string(Intention::opportunistic), "opportunistic");
  EXPECT_EQ(to_string(ArchitecturalPattern::parallel_evaluation),
            "parallel evaluation");
}

}  // namespace
}  // namespace redundancy::core
