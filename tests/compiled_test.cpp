//===- compiled_test.cpp - One compiled program, many runs ----------------===//
//
// A CompiledProgram is built once per (program, costs, policies) and every
// run of the program borrows it. Runs from one shared compiled program are
// held to fresh compile-and-run calls on random well-typed programs, over
// all three hardware designs and every registered prediction schedule:
// final memory, the whole trace (FinalMissTable included) and the hardware
// counters must agree, and the inputs poked into one run must never reach
// the image the next run starts from. Costs and policies are fixed when the
// program is compiled; a run's options cannot carry others.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <set>
#include <type_traits>

using namespace zam;
using namespace zam::test;

namespace {

/// One instance of every registered policy.
std::vector<MitigationPolicyPtr> everyPolicy() {
  std::vector<MitigationPolicyPtr> Out;
  for (const char *Spec :
       {"fast-doubling", "linear", "bucketed:q=3", "seeded:est=32"})
    Out.push_back(parseMitigationPolicy(Spec));
  return Out;
}

void expectSameRun(const RunResult &Shared, const RunResult &Fresh,
                   const std::string &What) {
  EXPECT_TRUE(Shared.FinalMemory == Fresh.FinalMemory) << What;
  EXPECT_TRUE(Shared.T == Fresh.T) << What;
  EXPECT_EQ(Shared.T.FinalMissTable, Fresh.T.FinalMissTable) << What;
  EXPECT_EQ(Shared.Hw, Fresh.Hw) << What;
}

/// Two runs of \p P from one compiled program on fresh clones of a
/// \p Kind environment — the first with random inputs poked in, the second
/// untouched — each against a fresh runFull of the same inputs.
void expectSharedMatchesFresh(const Program &P, HwKind Kind,
                              const PolicySelection &Sel, Rng &R,
                              const std::string &What) {
  const auto Template = createMachineEnv(Kind, P.lattice());
  InterpreterOptions Opts;
  Opts.Mitigation = Sel;
  const CompiledProgram Compiled(P, Opts.Costs, Sel);
  const Memory Image = Memory::fromProgram(P, Opts.Costs.DataBase);
  ASSERT_TRUE(Compiled.initialMemory() == Image) << What;

  // First run: poke random inputs into the borrowed copy of the image.
  auto EnvA = Template->clone();
  FullInterpreter First(Compiled, *EnvA, Opts.runOptions());
  randomizeMemoryValues(First.memory(), R);
  const Memory Poked = First.memory();
  ASSERT_FALSE(Poked == Image) << What << ": the pokes changed nothing";
  const RunResult SharedA = First.run();
  auto FreshEnvA = Template->clone();
  const RunResult FreshA = runFull(
      P, *FreshEnvA, [&](Memory &M) { M = Poked; }, Opts);
  expectSameRun(SharedA, FreshA, What + " (poked run)");
  EXPECT_TRUE(EnvA->stateEquals(*FreshEnvA)) << What;

  // Second run from the same compiled object: it starts from the pristine
  // image, not from the first run's pokes or final memory.
  EXPECT_TRUE(Compiled.initialMemory() == Image) << What;
  auto EnvB = Template->clone();
  FullInterpreter Second(Compiled, *EnvB, Opts.runOptions());
  EXPECT_TRUE(Second.memory() == Image) << What;
  const RunResult SharedB = Second.run();
  auto FreshEnvB = Template->clone();
  const RunResult FreshB = runFull(P, *FreshEnvB, Opts);
  expectSameRun(SharedB, FreshB, What + " (second run)");
  EXPECT_TRUE(EnvB->stateEquals(*FreshEnvB)) << What;

  // The small-step cursor borrows the same compiled program.
  auto EnvC = Template->clone();
  StepInterpreter Step(Compiled, Compiled.initialMemory(), *EnvC,
                       Opts.runOptions());
  EXPECT_TRUE(Step.runToCompletion() == FreshB.T) << What;
  EXPECT_TRUE(Step.memory() == FreshB.FinalMemory) << What;
  EXPECT_TRUE(EnvC->stateEquals(*FreshEnvB)) << What;
}

void fuzz(const SecurityLattice &Lat, uint64_t Seed, unsigned Want) {
  const std::vector<MitigationPolicyPtr> Policies = everyPolicy();
  Rng R(Seed);
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 10 * Want && Found < Want; ++Trial) {
    std::optional<Program> P = randomWellTypedProgram(Lat, R);
    if (!P)
      continue;
    ++Found;
    for (HwKind Kind : allHwKinds())
      for (const MitigationPolicyPtr &Policy : Policies) {
        PolicySelection Sel;
        Sel.Default = Policy.get();
        expectSharedMatchesFresh(*P, Kind, Sel, R,
                                 "program " + std::to_string(Found) + " on " +
                                     hwKindName(Kind) + " under " +
                                     Policy->spec());
      }
  }
  EXPECT_GE(Found, Want / 2) << "random generator produced too few programs";
}

} // namespace

TEST(CompiledProgram, TestedPoliciesAreEveryRegisteredPolicy) {
  std::set<std::string> Tested, Registered;
  for (const MitigationPolicyPtr &P : everyPolicy()) {
    ASSERT_NE(P, nullptr);
    Tested.insert(P->name());
  }
  for (const MitigationPolicyInfo &Info : mitigationPolicyRegistry())
    Registered.insert(Info.Name);
  EXPECT_EQ(Tested, Registered);
}

TEST(CompiledProgram, SharedRunsMatchFreshRunsTwoLevel) {
  fuzz(lh(), 0xC0DE, 24);
}

TEST(CompiledProgram, SharedRunsMatchFreshRunsThreeLevel) {
  fuzz(lmh(), 0xC0FE, 12);
}

TEST(CompiledProgram, RunsUseTheCompiledCosts) {
  // No mitigate, so the branch cost reaches the clock unpadded: raising it
  // by 7 must add exactly 7 cycles per executed branch.
  Program P = parseOrDie("var i : L;\nvar l : L;\n"
                         "while i < 5 do { i := i + 1 };\nl := 1");
  inferTimingLabels(P);
  CostModel Cheap, Dear;
  Dear.Branch = Cheap.Branch + 7;
  const CompiledProgram CheapC(P, Cheap), DearC(P, Dear);
  EXPECT_EQ(DearC.costs().Branch, Cheap.Branch + 7);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  auto DearEnv = Env->clone();
  const RunResult CheapRun = runFull(CheapC, *Env);
  const RunResult DearRun = runFull(DearC, *DearEnv);
  ASSERT_EQ(CheapRun.T.Ops.Branches, 6u);
  EXPECT_EQ(DearRun.T.FinalTime,
            CheapRun.T.FinalTime + 7 * CheapRun.T.Ops.Branches);

  // Lowering bakes the code and data layout in, and the image agrees.
  CostModel Moved;
  Moved.CodeBase = 0x50000000;
  Moved.DataBase = 0x20000000;
  const CompiledProgram MovedC(P, Moved);
  for (const LirInst &I : MovedC.lir().Insts) {
    if (I.K == IrInstr::Op::Assign || I.K == IrInstr::Op::Branch) {
      EXPECT_GE(I.CodeAddr, Moved.CodeBase);
    }
    if (I.K == IrInstr::Op::Assign) {
      EXPECT_EQ(I.SlotBase, MovedC.initialMemory().slotAt(I.Slot).Base);
    }
  }
  EXPECT_EQ(MovedC.initialMemory().slotAt(0).Base, Moved.DataBase);
}

TEST(CompiledProgram, RunsUseTheCompiledPolicies) {
  // The body outgrows the estimate, so the window settles on a later rung
  // of whichever schedule the program was compiled with.
  Program P = parseOrDie("var h : H;\nvar l : L;\n"
                         "mitigate (8, H) { while h > 0 do { h := h - 1 } };\n"
                         "l := 1");
  inferTimingLabels(P);
  auto Poke = [](Memory &M) { M.store("h", 40); };
  for (const MitigationPolicyPtr &Policy : everyPolicy()) {
    PolicySelection Sel;
    Sel.Default = Policy.get();
    const CompiledProgram Compiled(P, CostModel(), Sel);
    EXPECT_EQ(&Compiled.mitigation().base(), Policy.get());
    auto Env = createMachineEnv(HwKind::Partitioned, lh());
    const RunResult R = runFull(Compiled, *Env, Poke);
    ASSERT_EQ(R.T.Mitigations.size(), 1u);
    const MitigateRecord &W = R.T.Mitigations[0];
    EXPECT_TRUE(W.Mispredicted) << Policy->spec();
    EXPECT_EQ(W.Duration, Policy->predict(8, W.MissesAfter)) << Policy->spec();
    EXPECT_GT(W.Duration, W.BodyTime) << Policy->spec();
  }
}

TEST(CompiledProgram, RunOptionsCannotCarryCostsOrPolicies) {
  // InterpreterOptions (costs + policies + per-run settings) never
  // converts to the per-run options implicitly, so no run of a compiled
  // program can be handed costs or policies other than the compiled ones
  // (runFull over a CompiledProgram takes RunOptions by value too).
  static_assert(!std::is_convertible_v<InterpreterOptions, RunOptions>);
  static_assert(!std::is_constructible_v<RunOptions, InterpreterOptions>);
  static_assert(!std::is_constructible_v<FullInterpreter,
                                         const CompiledProgram &,
                                         MachineEnv &, InterpreterOptions>);
  static_assert(!std::is_constructible_v<StepInterpreter,
                                         const CompiledProgram &,
                                         MachineEnv &, InterpreterOptions>);
  static_assert(!std::is_constructible_v<StepInterpreter,
                                         const CompiledProgram &, Memory,
                                         MachineEnv &, InterpreterOptions>);
  // The explicit per-run part, and only it, is accepted.
  static_assert(std::is_constructible_v<FullInterpreter,
                                        const CompiledProgram &, MachineEnv &,
                                        RunOptions>);
  static_assert(requires(const CompiledProgram &C, MachineEnv &E,
                         InterpreterOptions O) {
    runFull(C, E, O.runOptions());
  });
  // A compiled program is shared by address; it cannot be copied into a
  // run by value.
  static_assert(!std::is_copy_constructible_v<CompiledProgram>);
  static_assert(!std::is_move_constructible_v<CompiledProgram>);
  SUCCEED();
}
