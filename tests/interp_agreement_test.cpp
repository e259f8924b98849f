//===- interp_agreement_test.cpp - Big-step vs small-step engines ----------===//
//
// The fast big-step FullInterpreter and the literal small-step
// StepInterpreter implement the same full semantics; these tests check
// cycle-level agreement on hand-written and random programs across all
// three hardware designs — unobserved, under each observer alone and under
// all of them — plus the basic timing behaviors of the full semantics
// themselves and the engines' handling of a displaced hardware hook.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "obs/CostLedger.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"
#include "obs/Metrics.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
Program inferred(std::string Source) {
  Program P = parseOrDie(Source);
  inferTimingLabels(P);
  return P;
}

/// Which RunOptions observer fields one row of the observer table sets.
struct ObserverRow {
  const char *Name;
  bool Probe = false, Provenance = false, RecordMisses = false,
       OnWindow = false;
};

/// Unobserved, each observer alone, and all four together.
const ObserverRow ObserverTable[] = {
    {"none"},
    {"probe", true},
    {"provenance", false, true},
    {"misses", false, false, true},
    {"window", false, false, false, true},
    {"all", true, true, true, true},
};

/// Everything one run and its observers produced.
struct ObservedRun {
  Trace T;
  Memory FinalMemory;
  std::string Exec;   ///< The profile's exec.* metrics.
  std::string Ledger; ///< The ledger's canonical JSON.
  double LeakBits = 0;
  uint64_t LeakWindows = 0;
};

/// Runs \p P on \p Env under \p Row's observers through the big-step
/// (\p Step false) or the small-step engine.
ObservedRun runObserved(const Program &P, MachineEnv &Env,
                        const ObserverRow &Row, bool Step) {
  ExecProfile Prof;
  CostLedger Ledger;
  LeakAudit Audit(P.lattice(), std::nullopt, PolicySelection());
  InterpreterOptions Opts;
  if (Row.Probe)
    Opts.Probe = &Prof;
  if (Row.Provenance)
    Opts.Provenance = &Ledger;
  Opts.RecordMisses = Row.RecordMisses;
  if (Row.OnWindow)
    Opts.OnMitigateWindow = [&Audit](const MitigateRecord &R) {
      Audit.onWindow(R);
    };
  ObservedRun O;
  if (Step) {
    StepInterpreter S(P, Env, Opts);
    O.T = S.runToCompletion();
    O.FinalMemory = S.memory();
  } else {
    RunResult R = runFull(P, Env, Opts);
    O.T = std::move(R.T);
    O.FinalMemory = std::move(R.FinalMemory);
  }
  MetricsRegistry Reg;
  Prof.exportMetrics(Reg);
  O.Exec = Reg.toJson().dump();
  O.Ledger = Ledger.toJson().dump();
  O.LeakBits = Audit.totalBitsBound();
  for (Label L : P.lattice().allLabels())
    O.LeakWindows += Audit.account(L).Windows;
  return O;
}

/// For every row of the observer table, the two engines agree on the whole
/// trace (miss log included), memory, hardware state, and what each
/// observer recorded; and observing never changes the run itself.
void expectEnginesAgree(const Program &P, HwKind Kind) {
  auto Start = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
  Trace Unobserved;
  for (const ObserverRow &Row : ObserverTable) {
    SCOPED_TRACE(std::string(hwKindName(Kind)) + ", observers: " + Row.Name);
    auto Env1 = Start->clone();
    auto Env2 = Start->clone();
    ObservedRun Fast = runObserved(P, *Env1, Row, /*Step=*/false);
    ObservedRun Slow = runObserved(P, *Env2, Row, /*Step=*/true);

    EXPECT_EQ(Fast.T.FinalTime, Slow.T.FinalTime);
    EXPECT_EQ(Fast.T.Steps, Slow.T.Steps);
    EXPECT_TRUE(Fast.FinalMemory == Slow.FinalMemory);
    EXPECT_TRUE(Env1->stateEquals(*Env2));
    ASSERT_EQ(Fast.T.Events.size(), Slow.T.Events.size());
    for (size_t I = 0; I != Fast.T.Events.size(); ++I)
      EXPECT_TRUE(Fast.T.Events[I] == Slow.T.Events[I]) << "event " << I;
    ASSERT_EQ(Fast.T.Mitigations.size(), Slow.T.Mitigations.size());
    for (size_t I = 0; I != Fast.T.Mitigations.size(); ++I)
      EXPECT_TRUE(Fast.T.Mitigations[I] == Slow.T.Mitigations[I])
          << "mitigation " << I;
    EXPECT_EQ(Fast.T.Misses.size(), Slow.T.Misses.size());
    EXPECT_TRUE(Fast.T == Slow.T);
    EXPECT_EQ(Fast.Exec, Slow.Exec);
    EXPECT_EQ(Fast.Ledger, Slow.Ledger);
    EXPECT_EQ(Fast.LeakBits, Slow.LeakBits);
    EXPECT_EQ(Fast.LeakWindows, Slow.LeakWindows);

    // Only the miss log may differ from the unobserved run.
    if (!Row.RecordMisses) {
      EXPECT_TRUE(Fast.T.Misses.empty());
    }
    Fast.T.Misses.clear();
    if (&Row == &ObserverTable[0]) {
      Unobserved = Fast.T;
    } else {
      EXPECT_TRUE(Fast.T == Unobserved);
    }
  }
}
} // namespace

class EngineAgreement : public ::testing::TestWithParam<HwKind> {};

TEST_P(EngineAgreement, StraightLine) {
  expectEnginesAgree(inferred("var x : L;\nvar y : L;\n"
                              "x := 1; y := x + 2; x := y * y"),
                     GetParam());
}

TEST_P(EngineAgreement, BranchesAndLoops) {
  expectEnginesAgree(inferred("var h : H = 3;\nvar l : L;\n"
                              "l := 0;\n"
                              "while l < 5 do { l := l + 1 };\n"
                              "if h then { h := h * 2 } else { skip }"),
                     GetParam());
}

TEST_P(EngineAgreement, SleepAndArrays) {
  expectEnginesAgree(inferred("var a : L[8];\nvar i : L;\n"
                              "i := 0;\n"
                              "while i < 8 do { a[i] := i; i := i + 1 };\n"
                              "sleep(a[3])"),
                     GetParam());
}

TEST_P(EngineAgreement, MitigatedHighLoop) {
  expectEnginesAgree(inferred("var h : H = 5;\nvar l : L;\n"
                              "mitigate (10, H) {\n"
                              "  while h > 0 do { h := h - 1 }\n"
                              "};\n"
                              "l := 1"),
                     GetParam());
}

TEST_P(EngineAgreement, NestedMitigates) {
  expectEnginesAgree(
      inferred("var h : H = 2;\n"
               "mitigate (200, H) {\n"
               "  mitigate (5, H) { sleep(h) @[H,H] };\n"
               "  mitigate (5, H) { sleep(h + h) @[H,H] }\n"
               "}"),
      GetParam());
}

TEST_P(EngineAgreement, RandomPrograms) {
  Rng R(0xA11CE + static_cast<uint64_t>(GetParam()));
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 60 && Found < 12; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    std::optional<Program> P = randomWellTypedProgram(lh(), R, O);
    if (!P)
      continue;
    ++Found;
    expectEnginesAgree(*P, GetParam());
  }
  EXPECT_GE(Found, 6u) << "random generator produced too few programs";
}

TEST_P(EngineAgreement, RandomProgramsThreeLevel) {
  Rng R(0xB0B + static_cast<uint64_t>(GetParam()));
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 60 && Found < 8; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    std::optional<Program> P = randomWellTypedProgram(lmh(), R, O);
    if (!P)
      continue;
    ++Found;
    expectEnginesAgree(*P, GetParam());
  }
  EXPECT_GE(Found, 4u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, EngineAgreement,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

namespace {
const char *const OneMitigate = "var h : H;\nvar l : L;\n"
                                "mitigate (64, H) { sleep(h) @[H, H] };\n"
                                "l := 1";

/// Counts the accesses it is shown.
class CountingObserver final : public HwObserver {
public:
  void onAccess(const HwAccess &) override { ++Seen; }
  uint64_t Seen = 0;
};

/// Every access consults its L1 exactly once.
uint64_t accesses(const HwStats &S) {
  return S.L1D.Hits + S.L1D.Misses + S.L1I.Hits + S.L1I.Misses;
}
} // namespace

TEST(ObserverTable, MissLogAloneIsRecordedByBothEngines) {
  const ObserverRow &MissesOnly = ObserverTable[3];
  ASSERT_TRUE(MissesOnly.RecordMisses && !MissesOnly.Provenance);
  Program P = inferred(OneMitigate);
  auto Env1 = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  auto Env2 = Env1->clone();
  ObservedRun Fast = runObserved(P, *Env1, MissesOnly, /*Step=*/false);
  ObservedRun Slow = runObserved(P, *Env2, MissesOnly, /*Step=*/true);
  EXPECT_FALSE(Fast.T.Misses.empty());
  EXPECT_TRUE(Fast.T.Misses == Slow.T.Misses);
}

TEST(ObserverTable, AnyObserverAttachesThroughEitherField) {
  // A new observer needs no engine change: a cost-reading RunObserver
  // attached as the probe is fed exactly like one attached as provenance.
  struct CostCounter final : RunObserver {
    bool observesCosts() const override { return true; }
    void onCycles(const CostCursor &, CycleKind, uint64_t N) override {
      Cycles += N;
    }
    void onAccess(const CostCursor &, uint64_t, const HwAccess &) override {
      ++Accesses;
    }
    uint64_t Cycles = 0, Accesses = 0;
  };
  Program P = inferred(OneMitigate);
  for (bool AsProbe : {true, false}) {
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    CostCounter Counter;
    InterpreterOptions Opts;
    (AsProbe ? Opts.Probe : Opts.Provenance) = &Counter;
    RunResult R = runFull(P, *Env, Opts);
    EXPECT_EQ(Counter.Cycles, R.T.FinalTime) << AsProbe;
    EXPECT_EQ(Counter.Accesses, accesses(R.Hw)) << AsProbe;
  }
}

TEST(ObserverTable, DisplacedHardwareHookIsRestored) {
  Program P = inferred(OneMitigate);
  for (bool Step : {false, true})
    for (const ObserverRow &Row : ObserverTable) {
      SCOPED_TRACE(std::string(Step ? "step" : "full") + ", observers: " +
                   Row.Name);
      auto Env = createMachineEnv(HwKind::Partitioned, lh(),
                                  MachineEnvConfig());
      CountingObserver Counter;
      Env->setObserver(&Counter);
      runObserved(P, *Env, Row, Step);
      EXPECT_EQ(Env->observer(), &Counter);
      // A run with a cost observer hooks the env for its duration; any
      // other run leaves the installed hook seeing every access.
      const bool Hooks = Row.Provenance || Row.RecordMisses;
      EXPECT_EQ(Counter.Seen, Hooks ? 0 : accesses(Env->stats()));
      EXPECT_GT(accesses(Env->stats()), 0u);
    }

  // A small-step engine moved and destroyed before it halts restores the
  // hook as well.
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  CountingObserver Counter;
  Env->setObserver(&Counter);
  {
    CostLedger Ledger;
    InterpreterOptions Opts;
    Opts.Provenance = &Ledger;
    StepInterpreter S(P, *Env, Opts);
    S.step();
    StepInterpreter Moved = std::move(S);
    EXPECT_NE(Env->observer(), &Counter);
    EXPECT_FALSE(Moved.done());
  }
  EXPECT_EQ(Env->observer(), &Counter);
  EXPECT_EQ(Counter.Seen, 0u);
}

//===----------------------------------------------------------------------===//
// Full-semantics timing behaviors
//===----------------------------------------------------------------------===//

TEST(FullSemantics, SleepLiteralTakesExactTime) {
  // Property 4: (sleep n) consumes exactly max(n, 0).
  for (int64_t N : {0ll, 1ll, 100ll, -7ll}) {
    Program P = inferred("sleep(" + std::to_string(N > 0 ? N : 0) + ")");
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    RunResult R = runFull(P, *Env);
    EXPECT_EQ(R.T.FinalTime, static_cast<uint64_t>(N > 0 ? N : 0));
  }
}

TEST(FullSemantics, PaperBranchExampleLeaksThroughTime) {
  // Sec. 2.1: if (h) sleep(1) else sleep(10) — one bit of h leaks.
  auto TimeFor = [&](int64_t H) {
    Program P = inferred("var h : H = " + std::to_string(H) + ";\n"
                         "if h then { sleep(1) } else { sleep(10) }");
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    return runFull(P, *Env).T.FinalTime;
  };
  EXPECT_NE(TimeFor(0), TimeFor(1));
}

TEST(FullSemantics, InstructionFetchWarmsUp) {
  // The second iteration of a loop re-fetches the same code addresses and
  // hits the I-cache: per-iteration time drops after iteration one.
  Program P = inferred("var i : L;\nvar a : L[1];\n"
                       "i := 0;\n"
                       "while i < 2 do { a[0] := i; i := i + 1 }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RunResult R = runFull(P, *Env);
  ASSERT_EQ(R.T.Events.size(), 5u); // i:=0, then (a[0], i) twice.
  uint64_t Iter1 = R.T.Events[2].Time - R.T.Events[0].Time;
  uint64_t Iter2 = R.T.Events[4].Time - R.T.Events[2].Time;
  EXPECT_LT(Iter2, Iter1);
}

TEST(FullSemantics, StepLimitTruncatesDivergence) {
  Program P = inferred("var x : L;\nwhile 1 do { x := x + 1 }");
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());
  InterpreterOptions Opts;
  Opts.StepLimit = 500;
  RunResult R = runFull(P, *Env, Opts);
  EXPECT_TRUE(R.T.HitStepLimit);
  EXPECT_LE(R.T.Steps, 501u);
}

TEST(FullSemantics, MitigateRecordsCarryPcAndLevel) {
  Program P = inferred("var h : H = 1;\n"
                       "mitigate (100, H) {\n"
                       "  if h then { mitigate (5, H) { h := h + 1 } }\n"
                       "  else { skip }\n"
                       "}");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RunResult R = runFull(P, *Env);
  ASSERT_EQ(R.T.Mitigations.size(), 2u);
  // Completion order: the inner mitigate (η=1, high pc) finishes first.
  EXPECT_EQ(R.T.Mitigations[0].Eta, 1u);
  EXPECT_EQ(R.T.Mitigations[0].PcLabel, high());
  EXPECT_EQ(R.T.Mitigations[1].Eta, 0u);
  EXPECT_EQ(R.T.Mitigations[1].PcLabel, low());
  EXPECT_EQ(R.T.Mitigations[1].Level, high());
  // Nesting: the outer duration spans the inner one.
  EXPECT_GE(R.T.Mitigations[1].Duration, R.T.Mitigations[0].Duration);
}

TEST(FullSemantics, SharedMitigationStatePersists) {
  Program P = inferred("var h : H = 40;\n"
                       "mitigate (1, H) { sleep(h) @[H,H] }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  InterpreterOptions Opts;
  MitigationState Shared(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  Opts.SharedMitState = &Shared;

  RunResult First = runFull(P, *Env, Opts);
  EXPECT_TRUE(First.T.Mitigations[0].Mispredicted);
  unsigned MissesAfterFirst = Shared.misses(high());
  EXPECT_GT(MissesAfterFirst, 0u);

  // Second run starts from the penalized schedule: no new misprediction.
  RunResult Second = runFull(P, *Env, Opts);
  EXPECT_FALSE(Second.T.Mitigations[0].Mispredicted);
  EXPECT_EQ(Shared.misses(high()), MissesAfterFirst);
}
