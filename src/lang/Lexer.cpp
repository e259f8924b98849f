//===- Lexer.cpp ----------------------------------------------------------===//

#include "lang/Lexer.h"

#include <cctype>
#include <cstdint>
#include <limits>

using namespace zam;

const char *zam::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Ident:
    return "identifier";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::KwVar:
    return "'var'";
  case TokKind::KwSkip:
    return "'skip'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwThen:
    return "'then'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwDo:
    return "'do'";
  case TokKind::KwMitigate:
    return "'mitigate'";
  case TokKind::KwSleep:
    return "'sleep'";
  case TokKind::Assign:
    return "':='";
  case TokKind::Semi:
    return "';'";
  case TokKind::Comma:
    return "','";
  case TokKind::Colon:
    return "':'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::AtBracket:
    return "'@['";
  case TokKind::EqAssign:
    return "'='";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Less:
    return "'<'";
  case TokKind::LessEq:
    return "'<='";
  case TokKind::Greater:
    return "'>'";
  case TokKind::GreaterEq:
    return "'>='";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::PipePipe:
    return "'||'";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Pipe:
    return "'|'";
  case TokKind::Caret:
    return "'^'";
  case TokKind::Shl:
    return "'<<'";
  case TokKind::Shr:
    return "'>>'";
  case TokKind::Bang:
    return "'!'";
  case TokKind::Tilde:
    return "'~'";
  }
  return "unknown token";
}

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  advance();
  return true;
}

void Lexer::skipWhitespaceAndComments() {
  for (;;) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (peek() != '\n' && peek() != '\0')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = here();
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/')) {
        if (peek() == '\0') {
          Diags.error(Start, "unterminated block comment");
          return;
        }
        advance();
      }
      advance();
      advance();
      continue;
    }
    return;
  }
}

static TokKind keywordKind(const std::string &Text) {
  if (Text == "var")
    return TokKind::KwVar;
  if (Text == "skip")
    return TokKind::KwSkip;
  if (Text == "if")
    return TokKind::KwIf;
  if (Text == "then")
    return TokKind::KwThen;
  if (Text == "else")
    return TokKind::KwElse;
  if (Text == "while")
    return TokKind::KwWhile;
  if (Text == "do")
    return TokKind::KwDo;
  if (Text == "mitigate")
    return TokKind::KwMitigate;
  if (Text == "sleep")
    return TokKind::KwSleep;
  return TokKind::Ident;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  Token Tok;
  Tok.Loc = here();
  if (Pos >= Source.size()) {
    Tok.Kind = TokKind::Eof;
    return Tok;
  }

  char C = advance();

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Text(1, C);
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
      Text += advance();
    Tok.Kind = keywordKind(Text);
    if (Tok.Kind == TokKind::Ident)
      Tok.Text = std::move(Text);
    return Tok;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    // Accumulate unsigned and stop before INT64_MAX is exceeded, so an
    // oversized literal is a diagnostic rather than signed overflow.
    const bool Hex = C == '0' && (peek() == 'x' || peek() == 'X');
    const uint64_t Base = Hex ? 16 : 10;
    const uint64_t Max = std::numeric_limits<int64_t>::max();
    uint64_t Value = 0;
    bool OutOfRange = false;
    if (Hex)
      advance();
    else
      Value = C - '0';
    while (Hex ? std::isxdigit(static_cast<unsigned char>(peek()))
               : std::isdigit(static_cast<unsigned char>(peek()))) {
      char D = advance();
      uint64_t Digit = std::isdigit(static_cast<unsigned char>(D))
                           ? D - '0'
                           : std::tolower(D) - 'a' + 10;
      if (Value > (Max - Digit) / Base)
        OutOfRange = true;
      else
        Value = Value * Base + Digit;
    }
    if (OutOfRange) {
      Diags.error(Tok.Loc, "integer literal out of range");
      Value = 0;
    }
    Tok.Kind = TokKind::IntLit;
    Tok.IntValue = Value;
    return Tok;
  }

  switch (C) {
  case ':':
    Tok.Kind = match('=') ? TokKind::Assign : TokKind::Colon;
    return Tok;
  case ';':
    Tok.Kind = TokKind::Semi;
    return Tok;
  case ',':
    Tok.Kind = TokKind::Comma;
    return Tok;
  case '(':
    Tok.Kind = TokKind::LParen;
    return Tok;
  case ')':
    Tok.Kind = TokKind::RParen;
    return Tok;
  case '{':
    Tok.Kind = TokKind::LBrace;
    return Tok;
  case '}':
    Tok.Kind = TokKind::RBrace;
    return Tok;
  case '[':
    Tok.Kind = TokKind::LBracket;
    return Tok;
  case ']':
    Tok.Kind = TokKind::RBracket;
    return Tok;
  case '@':
    if (match('[')) {
      Tok.Kind = TokKind::AtBracket;
      return Tok;
    }
    Diags.error(Tok.Loc, "expected '[' after '@'");
    return next();
  case '=':
    Tok.Kind = match('=') ? TokKind::EqEq : TokKind::EqAssign;
    return Tok;
  case '+':
    Tok.Kind = TokKind::Plus;
    return Tok;
  case '-':
    Tok.Kind = TokKind::Minus;
    return Tok;
  case '*':
    Tok.Kind = TokKind::Star;
    return Tok;
  case '/':
    Tok.Kind = TokKind::Slash;
    return Tok;
  case '%':
    Tok.Kind = TokKind::Percent;
    return Tok;
  case '!':
    Tok.Kind = match('=') ? TokKind::NotEq : TokKind::Bang;
    return Tok;
  case '<':
    if (match('='))
      Tok.Kind = TokKind::LessEq;
    else if (match('<'))
      Tok.Kind = TokKind::Shl;
    else
      Tok.Kind = TokKind::Less;
    return Tok;
  case '>':
    if (match('='))
      Tok.Kind = TokKind::GreaterEq;
    else if (match('>'))
      Tok.Kind = TokKind::Shr;
    else
      Tok.Kind = TokKind::Greater;
    return Tok;
  case '&':
    Tok.Kind = match('&') ? TokKind::AmpAmp : TokKind::Amp;
    return Tok;
  case '|':
    Tok.Kind = match('|') ? TokKind::PipePipe : TokKind::Pipe;
    return Tok;
  case '^':
    Tok.Kind = TokKind::Caret;
    return Tok;
  case '~':
    Tok.Kind = TokKind::Tilde;
    return Tok;
  default:
    Diags.error(Tok.Loc, std::string("unexpected character '") + C + "'");
    return next();
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Toks;
  for (;;) {
    Toks.push_back(next());
    if (Toks.back().Kind == TokKind::Eof)
      return Toks;
  }
}
