//===- ir_diff_test.cpp - Differential fuzzing over the timing-IR ----------===//
//
// Random well-typed programs pushed through all three semantics layers:
// the timing-free core evaluator (the Fig. 2 reference), the big-step IR
// driver, and the resumable small-step cursor — over all three hardware
// designs, cycling the mitigation policy per program so every registered
// schedule is exercised. Adequacy says core and full agree on memory and
// the event sequence; engine unification says the two IR engines agree on
// everything, including the attribution ledger bit for bit; and the
// online leakage accountant (fed window-by-window during the run) must
// match an offline accountant replaying the finished trace bit for bit
// under whichever policy scheduled the run.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "obs/CostLedger.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"
#include "obs/Metrics.h"
#include "sem/Mitigation.h"
#include "sem/CoreInterpreter.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {

/// The policy rotation: every fuzz trial picks the next entry, so each
/// schedule's settle loop, ledger attribution and leak pricing get fuzzed
/// alongside the default.
const MitigationPolicy &trialPolicy(unsigned Trial) {
  static const BucketedPolicy Bucketed(3);
  static const SeededPolicy Seeded(32);
  switch (Trial % 4) {
  case 1:
    return linearPolicy();
  case 2:
    return Bucketed;
  case 3:
    return Seeded;
  default:
    return fastDoublingPolicy();
  }
}

/// Runs \p P through core, full, and step semantics on \p Kind hardware
/// under \p Sel and checks the three-way agreement obligations.
void expectThreeWayAgreement(const Program &P, HwKind Kind,
                             const PolicySelection &Sel) {
  CoreResult Core = runCore(P);
  ASSERT_FALSE(Core.HitStepLimit);

  auto FullEnv = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
  auto StepEnv = FullEnv->clone();

  CostLedger FullLedger, StepLedger;
  ExecProfile FullProf, StepProf;
  InterpreterOptions FullOpts, StepOpts;
  FullOpts.Mitigation = Sel;
  StepOpts.Mitigation = Sel;
  FullOpts.Provenance = &FullLedger;
  StepOpts.Provenance = &StepLedger;
  FullOpts.Probe = &FullProf;
  StepOpts.Probe = &StepProf;
  LeakAudit Online(P.lattice(), std::nullopt, Sel);
  FullOpts.OnMitigateWindow = [&Online](const MitigateRecord &R) {
    Online.onWindow(R);
  };

  RunResult Full = runFull(P, *FullEnv, FullOpts);
  ASSERT_FALSE(Full.T.HitStepLimit);

  StepInterpreter Step(P, *StepEnv, StepOpts);
  Trace StepTrace = Step.runToCompletion();

  // Adequacy (Property 1): the full semantics computes the same memory and
  // the same assignment events as the timing-free core. Core event times
  // are ordinals, not cycles, so compare events fieldwise without Time.
  EXPECT_TRUE(Core.FinalMemory == Full.FinalMemory) << hwKindName(Kind);
  ASSERT_EQ(Core.Events.size(), Full.T.Events.size());
  for (size_t I = 0; I != Core.Events.size(); ++I) {
    const AssignEvent &C = Core.Events[I], &F = Full.T.Events[I];
    EXPECT_EQ(C.Var, F.Var) << "event " << I;
    EXPECT_EQ(C.VarLabel, F.VarLabel) << "event " << I;
    EXPECT_EQ(C.IsArrayStore, F.IsArrayStore) << "event " << I;
    EXPECT_EQ(C.ElemIndex, F.ElemIndex) << "event " << I;
    EXPECT_EQ(C.Value, F.Value) << "event " << I;
  }

  // Engine unification: both IR engines agree on the entire observable
  // configuration — cycle-exact trace, memory, hardware state, and the
  // per-line attribution ledger (canonical JSON, byte for byte).
  EXPECT_EQ(Full.T.FinalTime, StepTrace.FinalTime) << hwKindName(Kind);
  EXPECT_EQ(Full.T.Steps, StepTrace.Steps);
  EXPECT_EQ(Full.T.FinalMissTable, StepTrace.FinalMissTable);
  EXPECT_TRUE(Full.FinalMemory == Step.memory());
  EXPECT_TRUE(FullEnv->stateEquals(*StepEnv));
  ASSERT_EQ(Full.T.Events.size(), StepTrace.Events.size());
  for (size_t I = 0; I != Full.T.Events.size(); ++I)
    EXPECT_TRUE(Full.T.Events[I] == StepTrace.Events[I]) << "event " << I;
  ASSERT_EQ(Full.T.Mitigations.size(), StepTrace.Mitigations.size());
  for (size_t I = 0; I != Full.T.Mitigations.size(); ++I)
    EXPECT_TRUE(Full.T.Mitigations[I] == StepTrace.Mitigations[I])
        << "mitigation " << I;
  EXPECT_EQ(FullLedger.toJson().dump(), StepLedger.toJson().dump());
  EXPECT_EQ(FullLedger.totalCycles(), Full.T.FinalTime)
      << "ledger must attribute every cycle";

  // Execution-observatory unification: both engines dispatch the same IR
  // through the same core, so the exec.* profiles — pc counts, opcode and
  // digram tables, branch directions, settle histograms — are identical
  // byte for byte, and each satisfies the conservation equations.
  std::string ProfErr;
  EXPECT_TRUE(FullProf.selfCheck(ProfErr)) << ProfErr;
  EXPECT_TRUE(StepProf.selfCheck(ProfErr)) << ProfErr;
  MetricsRegistry FullExec, StepExec;
  FullProf.exportMetrics(FullExec);
  StepProf.exportMetrics(StepExec);
  EXPECT_EQ(FullExec.toJson().dump(), StepExec.toJson().dump())
      << hwKindName(Kind);

  // Online/offline agreement: replaying the finished trace through a
  // fresh accountant must land on the same Sec. 6 bound, bit for bit,
  // under whichever policy scheduled the run.
  LeakAudit Offline(P.lattice(), std::nullopt, Sel);
  Offline.ingest(Full.T);
  EXPECT_EQ(Online.totalBitsBound(), Offline.totalBitsBound())
      << Sel.base().spec() << " on " << hwKindName(Kind);
  for (Label L : P.lattice().allLabels()) {
    EXPECT_EQ(Online.account(L).Windows, Offline.account(L).Windows);
    EXPECT_EQ(Online.account(L).BitsBound, Offline.account(L).BitsBound);
  }
}

void fuzz(const SecurityLattice &Lat, HwKind Kind, uint64_t Seed,
          unsigned Want) {
  Rng R(Seed);
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 10 * Want && Found < Want; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 4;
    std::optional<Program> P = randomWellTypedProgram(Lat, R, O);
    if (!P)
      continue;
    ++Found;
    PolicySelection Sel;
    Sel.Default = &trialPolicy(Found);
    expectThreeWayAgreement(*P, Kind, Sel);
  }
  EXPECT_GE(Found, Want / 2) << "random generator produced too few programs";
}

} // namespace

class IrDifferential : public ::testing::TestWithParam<HwKind> {};

TEST_P(IrDifferential, RandomProgramsTwoLevel) {
  fuzz(lh(), GetParam(), 0xD1FF + static_cast<uint64_t>(GetParam()), 16);
}

TEST_P(IrDifferential, RandomProgramsThreeLevel) {
  fuzz(lmh(), GetParam(), 0xFACE + static_cast<uint64_t>(GetParam()), 10);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, IrDifferential,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });
