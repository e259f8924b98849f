//===- lir_test.cpp - The register-transfer tier -------------------------===//
//
// The LIR tier under the timing-IR: lowering invariants (verifyLir over
// random well-typed programs), listing stability, and the interleaving
// obligation of the execution core — any number of single steps followed
// by run() lands on exactly the full run's observables.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "ir/Lir.h"
#include "ir/Lowering.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {

/// A loop whose back edge branches into the middle of a straightline
/// assign;assign chain.
Program loopProgram() {
  Program P = parseOrDie("var x : L;\nvar y : L;\n"
                         "x := 6;\n"
                         "while x > 0 do { y := y + x; x := x - 1 }");
  inferTimingLabels(P);
  return P;
}

} // namespace

TEST(Lir, LoweringPreservesShapeAndVerifies) {
  Program P = loopProgram();
  IrProgram IR = lowerProgram(P);
  LirProgram L = lowerToLir(IR);

  // 1:1 with the IR tier, micro-ops bounded.
  ASSERT_EQ(L.Insts.size(), IR.Instrs.size());
  EXPECT_EQ(L.IR, &IR);
  EXPECT_GE(L.NumRegs, 1u);
  std::string Err;
  EXPECT_TRUE(verifyLir(L, Err)) << Err;

  // Instruction kinds, successors and labels carry over unchanged.
  for (size_t I = 0; I != L.Insts.size(); ++I) {
    EXPECT_EQ(L.Insts[I].K, IR.Instrs[I].K) << "pc " << I;
    EXPECT_EQ(L.Insts[I].Next, IR.Instrs[I].Next) << "pc " << I;
  }
}

TEST(Lir, RandomProgramsLowerAndVerify) {
  Rng R(0x11F);
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 200 && Found < 20; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 4;
    std::optional<Program> P = randomWellTypedProgram(lmh(), R, O);
    if (!P)
      continue;
    ++Found;
    IrProgram IR = lowerProgram(*P);
    LirProgram L = lowerToLir(IR);
    std::string Err;
    ASSERT_TRUE(verifyLir(L, Err)) << Err;
  }
  ASSERT_GE(Found, 10u);
}

TEST(Lir, PrintLirIsStable) {
  Program P = loopProgram();
  IrProgram IR = lowerProgram(P);
  LirProgram L = lowerToLir(IR);
  const std::string First = printLir(L, P.lattice());
  EXPECT_EQ(First.rfind("lir: ", 0), 0u);
  EXPECT_EQ(First, printLir(L, P.lattice())) << "rendering must be pure";
}

TEST(Lir, StepsThenRunMatchFullRun) {
  // Resuming run() after every possible step count K: the core must pick
  // up soundly from whatever pc the single steps leave behind, including
  // the middle of the loop body.
  Program P = loopProgram();
  for (HwKind Kind : allHwKinds()) {
    auto BaseEnv = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
    const RunResult Base = runFull(P, *BaseEnv);
    ASSERT_FALSE(Base.T.HitStepLimit);
    for (uint64_t K = 0; K <= Base.T.Steps; ++K) {
      auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
      StepInterpreter Step(P, *Env);
      for (uint64_t I = 0; I != K; ++I)
        Step.step();
      Trace T = Step.runToCompletion();
      EXPECT_EQ(T.FinalTime, Base.T.FinalTime) << "resume after " << K;
      EXPECT_EQ(T.Steps, Base.T.Steps) << "resume after " << K;
      EXPECT_TRUE(Step.memory() == Base.FinalMemory) << "resume after " << K;
    }
  }
}
