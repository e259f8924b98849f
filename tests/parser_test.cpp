//===- parser_test.cpp - Parser and pretty-printer round trips -------------===//

#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "sem/FullInterpreter.h"
#include "sem/Limits.h"
#include "support/Casting.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

TEST(Parser, MinimalProgram) {
  Program P = parseOrDie("var x : L;\nx := 1 @[L,L]");
  ASSERT_TRUE(P.hasBody());
  ASSERT_EQ(P.vars().size(), 1u);
  EXPECT_EQ(P.vars()[0].Name, "x");
  EXPECT_EQ(P.vars()[0].SecLabel, low());
  const auto &A = cast<AssignCmd>(P.body());
  EXPECT_EQ(A.var(), "x");
  EXPECT_EQ(*A.labels().Read, low());
  EXPECT_EQ(*A.labels().Write, low());
}

TEST(Parser, DeclarationsWithInitializers) {
  Program P = parseOrDie("var h : H = 7;\n"
                         "var a : H[4] = {1, 2, 3};\n"
                         "var n : L = -5;\n"
                         "skip");
  const VarDecl *H = P.findVar("h");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Init, std::vector<int64_t>{7});
  const VarDecl *A = P.findVar("a");
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->IsArray);
  EXPECT_EQ(A->Size, 4u);
  EXPECT_EQ(A->Init, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(P.findVar("n")->Init, std::vector<int64_t>{-5});
}

TEST(Parser, SequenceIsRightNested) {
  Program P = parseOrDie("var x : L;\nx := 1; x := 2; x := 3");
  const auto &S = cast<SeqCmd>(P.body());
  EXPECT_TRUE(isa<AssignCmd>(S.first()));
  const auto &Rest = cast<SeqCmd>(S.second());
  EXPECT_TRUE(isa<AssignCmd>(Rest.first()));
  EXPECT_TRUE(isa<AssignCmd>(Rest.second()));
}

TEST(Parser, TrailingSemicolonAllowed) {
  Program P = parseOrDie("var x : L;\nx := 1;");
  EXPECT_TRUE(isa<AssignCmd>(P.body()));
}

TEST(Parser, PaperBranchExample) {
  // The Sec. 2.1 direct-dependency example.
  Program P = parseOrDie("var h : H;\n"
                         "if h then { sleep(1) @[L,L] } else { sleep(10) @[L,L] } @[L,L];\n"
                         "sleep(h) @[H,H]");
  const auto &S = cast<SeqCmd>(P.body());
  const auto &If = cast<IfCmd>(S.first());
  EXPECT_TRUE(isa<SleepCmd>(If.thenCmd()));
  EXPECT_TRUE(isa<SleepCmd>(If.elseCmd()));
  const auto &Sl = cast<SleepCmd>(S.second());
  EXPECT_EQ(*Sl.labels().Read, high());
  EXPECT_EQ(*Sl.labels().Write, high());
}

TEST(Parser, MitigateSyntax) {
  Program P = parseOrDie("var h : H;\n"
                         "mitigate (1, H) { sleep(h) @[H,H] } @[L,L]");
  const auto &M = cast<MitigateCmd>(P.body());
  EXPECT_EQ(M.mitLevel(), high());
  EXPECT_TRUE(isa<IntLitExpr>(M.initialEstimate()));
  EXPECT_TRUE(isa<SleepCmd>(M.body()));
}

TEST(Parser, WhileAndArrays) {
  Program P = parseOrDie("var a : L[8];\nvar i : L;\n"
                         "i := 0;\n"
                         "while i < 8 do { a[i] := i * 2; i := i + 1 }");
  const auto &S = cast<SeqCmd>(P.body());
  const auto &W = cast<WhileCmd>(S.second());
  const auto &Body = cast<SeqCmd>(W.body());
  EXPECT_TRUE(isa<ArrayAssignCmd>(Body.first()));
}

TEST(Parser, MissingAnnotationLeavesLabelsUnset) {
  Program P = parseOrDie("var x : L;\nx := 1");
  EXPECT_FALSE(P.body().labels().Read.has_value());
  EXPECT_FALSE(P.body().labels().Write.has_value());
}

TEST(Parser, ExpressionPrecedence) {
  Program P = parseOrDie("var x : L;\nx := 1 + 2 * 3");
  const auto &A = cast<AssignCmd>(P.body());
  const auto &Add = cast<BinOpExpr>(A.value());
  EXPECT_EQ(Add.op(), BinOpKind::Add);
  EXPECT_EQ(cast<BinOpExpr>(Add.rhs()).op(), BinOpKind::Mul);
}

TEST(Parser, ComparisonBindsTighterThanLogical) {
  Program P = parseOrDie("var x : L;\nx := 1 < 2 && 3 == 3");
  const auto &A = cast<AssignCmd>(P.body());
  EXPECT_EQ(cast<BinOpExpr>(A.value()).op(), BinOpKind::LogicalAnd);
}

TEST(Parser, UnknownLabelIsAnError) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseProgram("var x : M;\nskip", lh(), Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, RedeclarationIsAnError) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(
      parseProgram("var x : L;\nvar x : H;\nskip", lh(), Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, MissingElseIsAnError) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(
      parseProgram("var x : L;\nif x then { skip }", lh(), Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, TrailingGarbageIsAnError) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseProgram("var x : L;\nskip skip", lh(), Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

namespace {
/// Expects \p Source to fail to parse with a diagnostic containing
/// \p Message.
void expectRejected(const std::string &Source, const std::string &Message) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseProgram(Source, lh(), Diags).has_value());
  EXPECT_NE(Diags.str().find(Message), std::string::npos) << Diags.str();
}

/// \p N statements `x := x + 1` in one sequence.
std::string statements(unsigned N) {
  std::string S;
  for (unsigned I = 0; I != N; ++I)
    S += I + 1 == N ? "x := x + 1\n" : "x := x + 1;\n";
  return S;
}

/// `x := 1+1+…+1` with \p Operators operators.
std::string chainOf(unsigned Operators) {
  std::string S = "x := 1";
  for (unsigned I = 0; I != Operators; ++I)
    S += "+1";
  return S + "\n";
}

/// \p Blocks nested blocks around `x := - - … - 1` with \p Negations unary
/// minuses. The blocks alternate if and while, with a mitigate every 100
/// levels, so each pass takes every recursive path; every guard holds until
/// the innermost block runs.
std::string nestedProgram(unsigned Blocks, unsigned Negations) {
  std::string Open, Close;
  for (unsigned I = 0; I != Blocks; ++I) {
    if (I % 100 == 50) {
      Open += "mitigate (1, L) {\n";
      Close = "}\n" + Close;
    } else if (I % 2 == 0) {
      Open += "if x == 0 then {\n";
      Close = "} else { skip }\n" + Close;
    } else {
      Open += "while x == 0 do {\n";
      Close = "}\n" + Close;
    }
  }
  std::string Value;
  for (unsigned I = 0; I != Negations; ++I)
    Value += "- ";
  return Open + "x := " + Value + "1\n" + Close;
}

/// Parses \p Body over `var x : L` and drives it through inference, the
/// type checker, the printer and a full run: every pass that recurses over
/// the AST. \returns the final x.
int64_t runEveryPass(const std::string &Body) {
  Program P = parseOrDie("var x : L;\n" + Body);
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  EXPECT_TRUE(typeCheck(P, Diags)) << Diags.str();
  EXPECT_FALSE(printProgram(P).empty());
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  return runFull(P, *Env).FinalMemory.load("x");
}
} // namespace

TEST(Parser, LexicalErrorFailsTheParse) {
  expectRejected("var x : L;\nx := 1 $", "2:8: unexpected character '$'");
  expectRejected("var x : L;\nx := 99999999999999999999",
                 "2:6: integer literal out of range");
}

TEST(Parser, MalformedAnnotationFailsTheParse) {
  expectRejected("var x : L;\nskip @[L H]", "expected ','");
}

TEST(Parser, LongestSequenceRunsAndOneMoreIsRejected) {
  EXPECT_EQ(runEveryPass(statements(kMaxSequenceLength)),
            int64_t(kMaxSequenceLength));
  expectRejected("var x : L;\n" + statements(kMaxSequenceLength + 1),
                 "statement sequence exceeds the limit");
}

TEST(Parser, LongestOperatorChainRunsAndOneMoreIsRejected) {
  // The chain's first operand holds one nesting level of its own.
  const unsigned Longest = kMaxNestingDepth - 1;
  EXPECT_EQ(runEveryPass(chainOf(Longest)), int64_t(Longest) + 1);
  expectRejected("var x : L;\n" + chainOf(Longest + 1),
                 "nesting exceeds the limit");
}

TEST(Parser, DeepestNestingRunsAndOneMoreIsRejected) {
  // Each nested statement sits one Seq deeper than the statement holding
  // its block, so blocks nest at most kMaxSequenceLength - 1 deep; unary
  // minuses fill the rest of kMaxNestingDepth (the innermost operand holds
  // a level of its own). Every pass, IR lowering included, must fit the
  // stack of a sanitizer build at this bound.
  const unsigned Blocks = kMaxSequenceLength - 1;
  const unsigned Negations = kMaxNestingDepth - Blocks - 1;
  EXPECT_EQ(runEveryPass(nestedProgram(Blocks, Negations)),
            Negations % 2 ? -1 : 1);
  expectRejected("var x : L;\n" + nestedProgram(Blocks, Negations + 1),
                 "nesting exceeds the limit");
  expectRejected("var x : L;\n" + nestedProgram(Blocks + 1, 0),
                 "statement sequence exceeds the limit");
}

TEST(Parser, EnclosingSequencesCountTowardTheSequenceLimit) {
  // Half the limit of statements, then a block holding one too many.
  const unsigned Half = kMaxSequenceLength / 2;
  expectRejected("var x : L;\n" + statements(Half) + ";\nif x then {\n" +
                     statements(kMaxSequenceLength - Half + 1) +
                     "} else { skip }\n",
                 "statement sequence exceeds the limit");
}

TEST(Parser, ThreeLevelLatticeLabels) {
  Program P = parseOrDie("var m : M;\nm := 1 @[M,M]", lmh());
  EXPECT_EQ(*P.body().labels().Read, *lmh().byName("M"));
}

TEST(Parser, NumbersMitigates) {
  Program P = parseOrDie("var h : H;\n"
                         "mitigate (1, H) { skip };\n"
                         "mitigate (2, H) { skip }");
  EXPECT_EQ(P.numMitigates(), 2u);
  const auto &S = cast<SeqCmd>(P.body());
  EXPECT_EQ(cast<MitigateCmd>(S.first()).mitigateId(), 0u);
  EXPECT_EQ(cast<MitigateCmd>(S.second()).mitigateId(), 1u);
}

//===----------------------------------------------------------------------===//
// Print/parse round trips
//===----------------------------------------------------------------------===//

static void expectRoundTrip(const std::string &Source,
                            const SecurityLattice &Lat = lh()) {
  Program P1 = parseOrDie(Source, Lat);
  std::string Printed1 = printProgram(P1);
  Program P2 = parseOrDie(Printed1, Lat);
  std::string Printed2 = printProgram(P2);
  EXPECT_EQ(Printed1, Printed2) << "original source:\n" << Source;
}

TEST(PrettyPrinter, RoundTripSimple) {
  expectRoundTrip("var x : L;\nx := 1 + 2 @[L,L]");
}

TEST(PrettyPrinter, RoundTripNested) {
  expectRoundTrip("var h : H;\nvar l : L;\n"
                  "l := 0 @[L,L];\n"
                  "if h then { h := h + 1 @[H,H] } else { skip @[H,H] } @[L,L];\n"
                  "while l < 4 do { l := l + 1 @[L,L] } @[L,L]");
}

TEST(PrettyPrinter, RoundTripMitigateAndArrays) {
  expectRoundTrip("var a : H[4] = {9, 8};\nvar h : H;\n"
                  "mitigate (16, H) { h := a[h & 3] @[H,H] } @[L,L];\n"
                  "sleep(3) @[L,L]");
}

TEST(PrettyPrinter, RoundTripUnlabeled) {
  expectRoundTrip("var x : L;\nx := 5; skip");
}

TEST(PrettyPrinter, ExpressionForms) {
  Program P = parseOrDie("var x : L;\nx := -(1) + ~(2) * !(0)");
  std::string S = printExpr(cast<AssignCmd>(P.body()).value());
  EXPECT_NE(S.find("-(1)"), std::string::npos);
  EXPECT_NE(S.find("~(2)"), std::string::npos);
}
