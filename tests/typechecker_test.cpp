//===- typechecker_test.cpp - The Fig. 4 type system -----------------------===//

#include "types/TypeChecker.h"
#include "types/LabelInference.h"

#include "support/Casting.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
/// Parses, optionally infers missing labels, and type-checks.
bool checks(const std::string &Source, const SecurityLattice &Lat = lh(),
            TypeCheckOptions Opts = TypeCheckOptions()) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Source, Lat, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    return false;
  inferTimingLabels(*P);
  return typeCheck(*P, Diags, Opts);
}

std::string diagsFor(const std::string &Source) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Source, lh(), Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    return "";
  inferTimingLabels(*P);
  typeCheck(*P, Diags);
  return Diags.str();
}
} // namespace

//===----------------------------------------------------------------------===//
// Explicit flows (T-ASGN)
//===----------------------------------------------------------------------===//

TEST(TypeChecker, DirectFlowLowToHighOk) {
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\nh := l"));
}

TEST(TypeChecker, DirectFlowHighToLowRejected) {
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\nl := h"));
  EXPECT_NE(diagsFor("var h : H;\nvar l : L;\nl := h").find("leaks"),
            std::string::npos);
}

TEST(TypeChecker, ImplicitFlowRejected) {
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\n"
                      "if h then { l := 1 } else { l := 0 }"));
}

TEST(TypeChecker, HighBranchWritingHighOk) {
  EXPECT_TRUE(checks("var h : H;\n"
                     "if h then { h := 1 } else { h := 0 }"));
}

//===----------------------------------------------------------------------===//
// Timing flows (τ threading)
//===----------------------------------------------------------------------===//

TEST(TypeChecker, TimingTaintBlocksLaterLowAssignment) {
  // After a high-guarded branch, the timing end-label is H; a later low
  // assignment would leak through the *time* of the update (T-ASGN's
  // τ ⊑ Γ(x) premise).
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\n"
                      "if h then { h := 1 } else { skip };\n"
                      "l := 0"));
}

TEST(TypeChecker, MitigateResetsTimingTaint) {
  // T-MTG: the body's timing end-label does not propagate; the same program
  // becomes typable once the high-timing region is mitigated.
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\n"
                     "mitigate (8, H) { if h then { h := 1 } else { skip } };\n"
                     "l := 0"));
}

TEST(TypeChecker, MitigationLevelMustCoverBodyTiming) {
  // lev(M) = L cannot bound an H-timing body (τ″ ⊑ ℓ′ premise).
  EXPECT_FALSE(checks("var h : H;\n"
                      "mitigate (8, L) { if h then { h := 1 } else { skip } }"));
}

TEST(TypeChecker, SleepOnHighTaintsTiming) {
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\nsleep(h); l := 1"));
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\nl := 1; sleep(h)"));
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\n"
                     "mitigate (4, H) { sleep(h) };\nl := 1"));
}

TEST(TypeChecker, HighGuardedLoopTaintsTiming) {
  // Loops with high guards are *permitted* (unlike Agat-style
  // transformation systems) — they only taint the timing end-label.
  EXPECT_TRUE(checks("var h : H;\nwhile h > 0 do { h := h - 1 }"));
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\n"
                      "while h > 0 do { h := h - 1 };\nl := 1"));
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\n"
                     "mitigate (16, H) { while h > 0 do { h := h - 1 } };\n"
                     "l := 1"));
}

TEST(TypeChecker, WhileFixpointStabilizes) {
  // The loop body raises the timing label via a high sleep: the τ′
  // fixpoint must converge and make the loop's end label high.
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\nvar i : L;\n"
                      "i := 2;\n"
                      "while i > 0 do { sleep(h); i := i - 1 };\n"
                      "l := 1"));
}

TEST(TypeChecker, DeeplyNestedLoopsReportEachViolationOnce) {
  // T-WHILE checks its body until τ′ is stable and then once more with
  // reporting; unless those checks are shared, 60 nested loops take 2^60
  // checks of the innermost body.
  std::string Open, Close;
  for (unsigned I = 0; I != 60; ++I) {
    Open += "while l == 0 do {\n";
    Close += "}\n";
  }
  const std::string Decls = "var h : H;\nvar l : L;\n";
  const std::string Mitigated = "mitigate (1, H) { sleep(h) };\nl := 1\n";
  EXPECT_TRUE(checks(Decls + Open + Mitigated + Close));
  const std::string Diags =
      diagsFor(Decls + Open + "sleep(h);\nl := 1\n" + Close);
  size_t Reports = 0;
  for (size_t At = Diags.find("leaks"); At != std::string::npos;
       At = Diags.find("leaks", At + 1))
    ++Reports;
  EXPECT_EQ(Reports, 1u) << Diags;
}

TEST(TypeChecker, LoopCounterUpdateAfterHighTimingInBodyRejected) {
  // Inside the body, τ is already high after sleep(h), so the update of the
  // low counter is rejected (this is why the login scan uses a high
  // counter).
  EXPECT_FALSE(checks("var h : H;\nvar i : L;\n"
                      "i := 2;\n"
                      "while i > 0 do { sleep(h); i := i - 1 }"));
}

//===----------------------------------------------------------------------===//
// Labels on commands (pc ⊑ ew, er/ew interface)
//===----------------------------------------------------------------------===//

TEST(TypeChecker, ExplicitWriteLabelBelowPcRejected) {
  // The Sec. 2.2 example: branches of a high guard annotated [L,L] leak
  // through low machine-environment state.
  EXPECT_FALSE(checks("var h1 : H;\nvar h2 : H;\nvar l1 : L;\n"
                      "if h1 then { h2 := l1 @[L,L] }\n"
                      "else { h2 := l1 + 1 @[L,L] } @[L,L]"));
}

TEST(TypeChecker, HighWriteLabelInHighContextOk) {
  EXPECT_TRUE(checks("var h1 : H;\nvar h2 : H;\nvar l1 : L;\n"
                     "if h1 then { h2 := l1 @[H,H] }\n"
                     "else { h2 := l1 + 1 @[H,H] } @[L,L]"));
}

TEST(TypeChecker, LowWriteOnHighVariableOk) {
  // ew is independent of Γ(x): a low-context assignment to a high variable
  // may use the low cache (Sec. 5.1 discussion).
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\nh := l @[L,L]"));
}

TEST(TypeChecker, HighReadLabelTaintsTiming) {
  // er = H on an early command taints τ, blocking later low assignments.
  EXPECT_FALSE(checks("var l : L;\nskip @[H,H];\nl := 1 @[L,L]",
                      lh(),
                      TypeCheckOptions{/*RequireEqualTimingLabels=*/true}));
}

TEST(TypeChecker, EqualTimingLabelSideCondition) {
  TypeCheckOptions Opts;
  Opts.RequireEqualTimingLabels = true;
  EXPECT_FALSE(checks("var l : L;\nl := 1 @[L,H]", lh(), Opts));
  EXPECT_TRUE(checks("var l : L;\nl := 1 @[L,L]", lh(), Opts));
  // Without the commodity-hardware condition, er ≠ ew is fine when secure.
  EXPECT_TRUE(checks("var l : L;\nl := 1 @[L,H]"));
}

TEST(TypeChecker, MissingLabelsAreReportedWithoutInference) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram("var l : L;\nl := 1", lh(), Diags);
  ASSERT_TRUE(P.has_value());
  EXPECT_FALSE(typeCheck(*P, Diags));
  EXPECT_NE(Diags.str().find("timing labels"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Arrays (the address-dependence extension)
//===----------------------------------------------------------------------===//

TEST(TypeChecker, HighIndexNeedsHighWriteLabel) {
  // Reading a[h] makes the accessed address secret; with ew = L the
  // hardware would install a secret-dependent address into low state.
  EXPECT_FALSE(checks("var a : H[8];\nvar h : H;\nh := a[h] @[L,L]"));
  EXPECT_TRUE(checks("var a : H[8];\nvar h : H;\nh := a[h] @[H,H]"));
}

TEST(TypeChecker, HighIndexStoreRejectedAtLow) {
  EXPECT_FALSE(checks("var a : H[8];\nvar h : H;\na[h] := 1 @[L,L]"));
  EXPECT_TRUE(checks("var a : H[8];\nvar h : H;\na[h] := 1 @[H,H]"));
}

TEST(TypeChecker, LowIndexIntoSecretArrayOk) {
  // Public index into a secret array: the address is public even though
  // the contents are not (the Sec. 4.1 coarse-abstraction insight).
  EXPECT_TRUE(checks("var a : H[8];\nvar h : H;\nvar i : L;\nh := a[i]"));
}

TEST(TypeChecker, IndexLabelJoinsIntoStoreValueBound) {
  // Storing at a secret index into a *low* array leaks the index.
  EXPECT_FALSE(checks("var a : L[8];\nvar h : H;\na[h] := 0 @[H,H]"));
}

//===----------------------------------------------------------------------===//
// Shape errors and diagnostics
//===----------------------------------------------------------------------===//

TEST(TypeChecker, UndeclaredVariable) {
  EXPECT_FALSE(checks("var l : L;\nl := ghost"));
}

TEST(TypeChecker, ArrayUsedAsScalar) {
  EXPECT_FALSE(checks("var a : L[4];\nvar l : L;\nl := a"));
  EXPECT_FALSE(checks("var a : L[4];\na := 1"));
}

TEST(TypeChecker, ScalarUsedAsArray) {
  EXPECT_FALSE(checks("var x : L;\nvar l : L;\nl := x[0]"));
  EXPECT_FALSE(checks("var x : L;\nx[0] := 1"));
}

TEST(TypeChecker, MultipleErrorsAllReported) {
  DiagnosticEngine Diags;
  std::optional<Program> P =
      parseProgram("var h : H;\nvar l : L;\nl := h; l := h + 1", lh(), Diags);
  ASSERT_TRUE(P.has_value());
  inferTimingLabels(*P);
  typeCheck(*P, Diags);
  EXPECT_GE(Diags.errorCount(), 2u);
}

//===----------------------------------------------------------------------===//
// Multilevel lattices
//===----------------------------------------------------------------------===//

TEST(TypeChecker, ThreeLevelFlows) {
  EXPECT_TRUE(checks("var l : L;\nvar m : M;\nvar h : H;\n"
                     "m := l; h := m",
                     lmh()));
  EXPECT_FALSE(checks("var m : M;\nvar h : H;\nm := h", lmh()));
}

TEST(TypeChecker, ThreeLevelMitigationLevels) {
  // A mitigate at level M bounds M-timing but not H-timing.
  EXPECT_TRUE(checks("var m : M;\nvar l : L;\n"
                     "mitigate (4, M) { sleep(m) };\nl := 1",
                     lmh()));
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\n"
                      "mitigate (4, M) { sleep(h) };\nl := 1",
                      lmh()));
}

TEST(TypeChecker, PowersetIncomparableLevels) {
  PowersetLattice Lat({"A", "B"});
  // Secrets of A may not flow to B's variables.
  EXPECT_FALSE(checks("var a : {A};\nvar b : {B};\nb := a", Lat));
  EXPECT_TRUE(checks("var a : {A};\nvar t : {A,B};\nt := a", Lat));
}

//===----------------------------------------------------------------------===//
// Inference
//===----------------------------------------------------------------------===//

TEST(LabelInference, FillsErEqualsEwEqualsPc) {
  Program P = parseOrDie("var h : H;\nvar l : L;\n"
                         "l := 1;\n"
                         "if h then { h := 2 } else { skip }");
  inferTimingLabels(P);
  const auto &S = cast<SeqCmd>(P.body());
  EXPECT_EQ(*S.first().labels().Read, low());
  EXPECT_EQ(*S.first().labels().Write, low());
  const auto &If = cast<IfCmd>(S.second());
  EXPECT_EQ(*If.labels().Write, low()); // The if itself is at pc L.
  EXPECT_EQ(*If.thenCmd().labels().Write, high()); // Branch at pc H.
  EXPECT_EQ(*If.thenCmd().labels().Read, high());
}

TEST(LabelInference, PreservesExplicitAnnotations) {
  Program P = parseOrDie("var l : L;\nl := 1 @[H,H]");
  inferTimingLabels(P);
  EXPECT_EQ(*P.body().labels().Read, high());
}

TEST(LabelInference, InferredProgramsPassEqualLabelOption) {
  Program P = parseOrDie("var h : H;\nvar l : L;\n"
                         "mitigate (4, H) { sleep(h) };\nl := 1");
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  TypeCheckOptions Opts;
  Opts.RequireEqualTimingLabels = true;
  EXPECT_TRUE(typeCheck(P, Diags, Opts)) << Diags.str();
}

TEST(TypeChecker, EndLabelBookkeeping) {
  Program P = parseOrDie("var h : H;\nvar l : L;\nl := 1; sleep(h)");
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  TypeChecker Checker(P, Diags);
  ASSERT_TRUE(Checker.check()) << Diags.str();
  ASSERT_TRUE(Checker.programEndLabel().has_value());
  EXPECT_EQ(*Checker.programEndLabel(), high()); // sleep(h) taints τ.
}

//===----------------------------------------------------------------------===//
// Additional rule-by-rule coverage
//===----------------------------------------------------------------------===//

TEST(TypeChecker, MitigateEstimateLabelFlowsIntoEndLabel) {
  // T-MTG: τ′ = ℓe ⊔ τ ⊔ er — a secret initial estimate taints the time at
  // which the mitigate completes, blocking later low assignments.
  EXPECT_FALSE(checks("var h : H;\nvar l : L;\n"
                      "mitigate (h, H) { skip };\nl := 1"));
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\n"
                     "mitigate (4, H) { skip };\nl := 1"));
}

TEST(TypeChecker, HighReadLabelOnAssignBlocksLowTarget) {
  // T-ASGN premise er ⊑ Γ(x): timing read from high machine state may not
  // influence when a low location changes.
  EXPECT_FALSE(checks("var l : L;\nl := 1 @[H,H]"));
}

TEST(TypeChecker, SkipPropagatesReadLabelIntoTiming) {
  // T-SKIP: τ′ = τ ⊔ er.
  EXPECT_FALSE(checks("var l : L;\nskip @[H,H]; l := 1"));
  EXPECT_TRUE(checks("var l : L;\nskip @[L,L]; l := 1"));
}

TEST(TypeChecker, BranchGuardLabelRaisesBranchTiming) {
  // T-IF: branches start at ℓe ⊔ τ ⊔ er even when they only write high.
  // The branch assignment itself is fine; the *join* taints what follows.
  EXPECT_TRUE(checks("var h : H;\nvar h2 : H;\n"
                     "if h then { h2 := 1 } else { h2 := 2 };\nh2 := 3"));
  EXPECT_FALSE(checks("var h : H;\nvar h2 : H;\nvar l : L;\n"
                      "if h then { h2 := 1 } else { h2 := 2 };\nl := 3"));
}

TEST(TypeChecker, NestedMitigatesTypeCheck) {
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\n"
                     "mitigate (8, H) {\n"
                     "  if h then { mitigate (2, H) { h := h + 1 } }\n"
                     "  else { skip }\n"
                     "};\n"
                     "l := 1"));
}

TEST(TypeChecker, MitigateInHighContextNeedsHighWriteLabel) {
  // A mitigate occurring under a high guard is itself a command in a high
  // context: pc ⊑ ew applies to it like any other command.
  EXPECT_FALSE(checks("var h : H;\n"
                      "if h then { mitigate (2, H) { h := 1 } @[L,L] }\n"
                      "else { skip }"));
  EXPECT_TRUE(checks("var h : H;\n"
                     "if h then { mitigate (2, H) { h := 1 } @[H,H] }\n"
                     "else { skip }"));
}

TEST(TypeChecker, WhileGuardReadLabelFeedsFixpoint) {
  // T-WHILE: er joins into τ′; a high-read-label loop taints what follows.
  EXPECT_FALSE(checks("var l : L;\nvar i : L;\n"
                      "i := 1;\n"
                      "while i > 0 do { i := i - 1 } @[H,H];\n"
                      "l := 1"));
}

TEST(TypeChecker, SequencedMitigatesEachResetTiming) {
  EXPECT_TRUE(checks("var h : H;\nvar l : L;\nvar l2 : L;\n"
                     "mitigate (4, H) { sleep(h) };\n"
                     "l := 1;\n"
                     "mitigate (4, H) { sleep(h + 1) };\n"
                     "l2 := 2"));
}

TEST(TypeChecker, SleepTimingDependsOnArgumentLabel) {
  // T-SLEEP: τ′ = τ ⊔ ℓe ⊔ er; a three-level mid-secret sleep taints at M.
  EXPECT_TRUE(checks("var m : M;\nvar h : H;\nsleep(m); h := 1", lmh()));
  EXPECT_FALSE(checks("var m : M;\nvar l : L;\nsleep(m); l := 1", lmh()));
}

TEST(TypeChecker, ProgramEndLabelResetByMitigate) {
  Program P = parseOrDie("var h : H;\nvar l : L;\n"
                         "mitigate (4, H) { sleep(h) };\nl := 1");
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  TypeChecker Checker(P, Diags);
  ASSERT_TRUE(Checker.check()) << Diags.str();
  EXPECT_EQ(*Checker.programEndLabel(), low());
}
