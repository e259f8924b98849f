//===- lexer_test.cpp - Tokenizer tests ------------------------------------===//

#include "lang/Lexer.h"

#include "gtest/gtest.h"

using namespace zam;

static std::vector<Token> lex(const std::string &Source,
                              DiagnosticEngine &Diags) {
  Lexer L(Source, Diags);
  return L.lexAll();
}

static std::vector<TokKind> kinds(const std::string &Source) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lex(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<TokKind> Out;
  for (const Token &T : Toks)
    Out.push_back(T.Kind);
  return Out;
}

TEST(Lexer, Keywords) {
  EXPECT_EQ(kinds("skip if then else while do mitigate sleep var"),
            (std::vector<TokKind>{TokKind::KwSkip, TokKind::KwIf,
                                  TokKind::KwThen, TokKind::KwElse,
                                  TokKind::KwWhile, TokKind::KwDo,
                                  TokKind::KwMitigate, TokKind::KwSleep,
                                  TokKind::KwVar, TokKind::Eof}));
}

TEST(Lexer, IdentifiersAndLiterals) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lex("foo _bar x1 42 0x2a", Diags);
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(Toks[0].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[0].Text, "foo");
  EXPECT_EQ(Toks[1].Text, "_bar");
  EXPECT_EQ(Toks[2].Text, "x1");
  EXPECT_EQ(Toks[3].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[3].IntValue, 42);
  EXPECT_EQ(Toks[4].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[4].IntValue, 42);
}

TEST(Lexer, OperatorsMaximalMunch) {
  EXPECT_EQ(kinds(":= == = != <= < << >= > >> && & || | ^ ! ~"),
            (std::vector<TokKind>{
                TokKind::Assign, TokKind::EqEq, TokKind::EqAssign,
                TokKind::NotEq, TokKind::LessEq, TokKind::Less, TokKind::Shl,
                TokKind::GreaterEq, TokKind::Greater, TokKind::Shr,
                TokKind::AmpAmp, TokKind::Amp, TokKind::PipePipe,
                TokKind::Pipe, TokKind::Caret, TokKind::Bang, TokKind::Tilde,
                TokKind::Eof}));
}

TEST(Lexer, AnnotationMarker) {
  EXPECT_EQ(kinds("@[L,H]"),
            (std::vector<TokKind>{TokKind::AtBracket, TokKind::Ident,
                                  TokKind::Comma, TokKind::Ident,
                                  TokKind::RBracket, TokKind::Eof}));
}

TEST(Lexer, BracketsAreDistinctFromAnnotation) {
  EXPECT_EQ(kinds("a[1]"),
            (std::vector<TokKind>{TokKind::Ident, TokKind::LBracket,
                                  TokKind::IntLit, TokKind::RBracket,
                                  TokKind::Eof}));
}

TEST(Lexer, LineComments) {
  EXPECT_EQ(kinds("x // the rest is ignored\ny"),
            (std::vector<TokKind>{TokKind::Ident, TokKind::Ident,
                                  TokKind::Eof}));
}

TEST(Lexer, BlockComments) {
  EXPECT_EQ(kinds("x /* multi\nline */ y"),
            (std::vector<TokKind>{TokKind::Ident, TokKind::Ident,
                                  TokKind::Eof}));
}

TEST(Lexer, UnterminatedBlockCommentIsAnError) {
  DiagnosticEngine Diags;
  lex("x /* never closed", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, UnexpectedCharacterIsReportedAndSkipped) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lex("x $ y", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 3u); // x, y, eof — '$' skipped.
  EXPECT_EQ(Toks[1].Text, "y");
}

TEST(Lexer, IntegerLiteralsUpToInt64Max) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks =
      lex("9223372036854775807 0x7fffffffffffffff 0XfF", Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].IntValue, INT64_MAX);
  EXPECT_EQ(Toks[1].IntValue, INT64_MAX);
  EXPECT_EQ(Toks[2].IntValue, 255);
}

TEST(Lexer, OutOfRangeIntegerLiteralIsAnError) {
  for (const char *Source :
       {"9223372036854775808", "99999999999999999999", "0x8000000000000000",
        "0x1ffffffffffffffff"}) {
    DiagnosticEngine Diags;
    std::vector<Token> Toks = lex(Source, Diags);
    EXPECT_EQ(Diags.errorCount(), 1u) << Source;
    EXPECT_NE(Diags.str().find("1:1: integer literal out of range"),
              std::string::npos)
        << Diags.str();
    ASSERT_EQ(Toks.size(), 2u) << Source; // The whole literal, then eof.
  }
}

TEST(Lexer, BareAtIsAnError) {
  DiagnosticEngine Diags;
  lex("x @ y", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, TracksLineAndColumn) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lex("x\n  y", Diags);
  ASSERT_GE(Toks.size(), 2u);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Col, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Col, 3u);
}

TEST(Lexer, EmptyInputYieldsEof) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lex("", Diags);
  ASSERT_EQ(Toks.size(), 1u);
  EXPECT_EQ(Toks[0].Kind, TokKind::Eof);
}
