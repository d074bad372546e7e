// Fuzz/property tests: the VM must be *total* — any word soup, any
// arguments, any configuration either terminates with a Behaviour or traps
// with a typed failure; it must never corrupt the host. This is the
// property that makes the VM safe to hand to genetic programming (which
// executes arbitrary mutants) and to attackers (which execute arbitrary
// injected words).
#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/vm.hpp"

namespace redundancy::vm {
namespace {

class VmFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmFuzzTest, RandomWordSoupAlwaysTerminates) {
  util::Rng rng{GetParam()};
  VmConfig cfg;
  cfg.memory_words = 256;
  cfg.max_steps = 2000;
  Vm machine{cfg};
  // Fill memory with raw random words — most decode as garbage, some as
  // real instructions with wild operands.
  for (std::size_t a = 0; a < cfg.memory_words; ++a) {
    (void)machine.poke(a, static_cast<std::int64_t>(rng()));
  }
  const std::int64_t args[] = {static_cast<std::int64_t>(rng.below(100)), 7};
  auto out = machine.run(rng.index(cfg.memory_words), args);
  if (!out.has_value()) {
    const auto kind = out.error().kind;
    EXPECT_TRUE(kind == core::FailureKind::crash ||
                kind == core::FailureKind::timeout)
        << out.error().describe();
  }
  EXPECT_LE(machine.steps_executed(), cfg.max_steps + 1);
}

TEST_P(VmFuzzTest, RandomValidProgramsAlwaysTerminate) {
  util::Rng rng{GetParam() * 31 + 5};
  // Programs built from real opcodes with plausible-but-wild operands.
  Program prog;
  prog.name = "fuzz";
  const std::size_t len = 1 + rng.index(40);
  for (std::size_t i = 0; i < len; ++i) {
    const auto op = static_cast<Op>(rng.below(static_cast<std::uint64_t>(Op::count_)));
    std::int64_t operand = 0;
    if (has_operand(op)) operand = rng.between(-8, 300);
    prog.code.push_back({op, operand});
  }
  VmConfig cfg;
  cfg.memory_words = 256;
  cfg.max_steps = 2000;
  const std::int64_t args[] = {3, 4, 5};
  auto out = execute(prog, args, cfg);
  if (!out.has_value()) {
    const auto kind = out.error().kind;
    EXPECT_TRUE(kind == core::FailureKind::crash ||
                kind == core::FailureKind::timeout);
  }
}

TEST_P(VmFuzzTest, PartitionIsNeverEscaped) {
  // Property: under region enforcement, no random program can observe or
  // modify memory outside its partition — stores elsewhere must trap first.
  util::Rng rng{GetParam() * 77 + 1};
  VmConfig cfg;
  cfg.memory_words = 512;
  cfg.max_steps = 2000;
  cfg.region_base = 256;
  cfg.region_words = 128;
  Vm machine{cfg};
  // Plant sentinels outside the partition.
  for (std::size_t a = 0; a < 256; ++a) (void)machine.poke(a, 0x5e471712);
  for (std::size_t a = 384; a < 512; ++a) (void)machine.poke(a, 0x5e471712);
  // Random code inside the partition.
  for (std::size_t a = 256; a < 384; ++a) {
    (void)machine.poke(a, static_cast<std::int64_t>(rng()));
  }
  (void)machine.run(256 + rng.index(128), {});
  for (std::size_t a = 0; a < 256; ++a) {
    ASSERT_EQ(machine.peek(a).value(), 0x5e471712) << "address " << a;
  }
  for (std::size_t a = 384; a < 512; ++a) {
    ASSERT_EQ(machine.peek(a).value(), 0x5e471712) << "address " << a;
  }
}

TEST_P(VmFuzzTest, AssemblerFormatsWhatItParses) {
  // Round-trip property on random (operandless-safe) programs.
  util::Rng rng{GetParam() * 13 + 3};
  Program prog;
  prog.name = "rt";
  const std::size_t len = 1 + rng.index(30);
  for (std::size_t i = 0; i < len; ++i) {
    const auto op =
        static_cast<Op>(rng.below(static_cast<std::uint64_t>(Op::count_)));
    std::int64_t operand = 0;
    if (has_operand(op)) operand = rng.between(0, 1000);
    prog.code.push_back({op, operand});
  }
  auto reparsed = assemble("rt", format(prog));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed.value().code, prog.code);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(VmFuzz, DeterministicReplay) {
  // Property: identical machine + identical inputs => identical behaviour,
  // even for garbage programs (required for replica comparison).
  util::Rng rng{1234};
  for (int trial = 0; trial < 20; ++trial) {
    VmConfig cfg;
    cfg.memory_words = 128;
    cfg.max_steps = 500;
    Vm a{cfg}, b{cfg};
    for (std::size_t addr = 0; addr < cfg.memory_words; ++addr) {
      const auto word = static_cast<std::int64_t>(rng());
      (void)a.poke(addr, word);
      (void)b.poke(addr, word);
    }
    auto ra = a.run(0, {});
    auto rb = b.run(0, {});
    EXPECT_EQ(ra.has_value(), rb.has_value());
    if (ra.has_value()) {
      EXPECT_EQ(ra.value(), rb.value());
    }
  }
}

}  // namespace
}  // namespace redundancy::vm
