//===- tests/frontend_test.cpp - Lexer and parser unit tests ------------------===//

#include "frontend/Lexer.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include <cstdint>
#include <memory>
#include <gtest/gtest.h>

using namespace biv::frontend;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, BasicTokens) {
  Lexer L("func f ( ) { x = 1 + 2 ; }");
  std::vector<Token> T = L.lexAll();
  std::vector<TokenKind> Kinds;
  for (const Token &Tok : T)
    Kinds.push_back(Tok.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::KwFunc,  TokenKind::Identifier, TokenKind::LParen,
      TokenKind::RParen,  TokenKind::LBrace,     TokenKind::Identifier,
      TokenKind::Assign,  TokenKind::Number,     TokenKind::Plus,
      TokenKind::Number,  TokenKind::Semicolon,  TokenKind::RBrace,
      TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, TwoCharOperators) {
  Lexer L("== != <= >= < > =");
  std::vector<Token> T = L.lexAll();
  ASSERT_EQ(T.size(), 8u);
  EXPECT_EQ(T[0].Kind, TokenKind::EqEq);
  EXPECT_EQ(T[1].Kind, TokenKind::NotEq);
  EXPECT_EQ(T[2].Kind, TokenKind::LessEq);
  EXPECT_EQ(T[3].Kind, TokenKind::GreaterEq);
  EXPECT_EQ(T[4].Kind, TokenKind::Less);
  EXPECT_EQ(T[5].Kind, TokenKind::Greater);
  EXPECT_EQ(T[6].Kind, TokenKind::Assign);
}

TEST(LexerTest, KeywordsVsIdentifiers) {
  Lexer L("for forx to toto by downto loop while");
  std::vector<Token> T = L.lexAll();
  EXPECT_EQ(T[0].Kind, TokenKind::KwFor);
  EXPECT_EQ(T[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[2].Kind, TokenKind::KwTo);
  EXPECT_EQ(T[3].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[4].Kind, TokenKind::KwBy);
  EXPECT_EQ(T[5].Kind, TokenKind::KwDownTo);
  EXPECT_EQ(T[6].Kind, TokenKind::KwLoop);
  EXPECT_EQ(T[7].Kind, TokenKind::KwWhile);
}

TEST(LexerTest, CommentsAndLocations) {
  Lexer L("x # comment to end of line\n  y");
  Token X = L.next();
  Token Y = L.next();
  EXPECT_EQ(X.Text, "x");
  EXPECT_EQ(X.Loc.Line, 1u);
  EXPECT_EQ(Y.Text, "y");
  EXPECT_EQ(Y.Loc.Line, 2u);
  EXPECT_EQ(Y.Loc.Col, 3u);
}

TEST(LexerTest, NumberValues) {
  Lexer L("0 42 123456789");
  EXPECT_EQ(L.next().Value, 0);
  EXPECT_EQ(L.next().Value, 42);
  EXPECT_EQ(L.next().Value, 123456789);
}

TEST(LexerTest, ErrorToken) {
  Lexer L("x @ y");
  L.next(); // x
  Token Bad = L.next();
  EXPECT_EQ(Bad.Kind, TokenKind::Error);
  EXPECT_NE(Bad.Text.find("unexpected"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// The returned FuncDecl lives in the Parser's arena, so the Parser must
/// stay alive for as long as the tree is inspected.
struct ParsedFunc {
  std::unique_ptr<Parser> P;
  FuncDecl *F = nullptr;
  FuncDecl *operator->() const { return F; }
  FuncDecl &operator*() const { return *F; }
};

ParsedFunc parseOk(const std::string &Src) {
  ParsedFunc R;
  R.P = std::make_unique<Parser>(Src);
  R.F = R.P->parseFunction();
  EXPECT_NE(R.F, nullptr);
  for (const std::string &E : R.P->errors())
    ADD_FAILURE() << E;
  return R;
}

} // namespace

TEST(ParserTest, Precedence) {
  auto F = parseOk("func f() { x = 1 + 2 * 3 - 4 / 2; }");
  const auto *A = ast_cast<AssignStmt>(F->Body[0]);
  // ((1 + (2*3)) - (4/2))
  EXPECT_EQ(toString(A->value()), "((1 + (2 * 3)) - (4 / 2))");
}

TEST(ParserTest, PowerIsRightAssociativeAndTight) {
  auto F = parseOk("func f() { x = 2 * 3 ^ 2 ^ 2; }");
  const auto *A = ast_cast<AssignStmt>(F->Body[0]);
  EXPECT_EQ(toString(A->value()), "(2 * (3 ^ (2 ^ 2)))");
}

TEST(ParserTest, UnaryMinus) {
  auto F = parseOk("func f(a) { x = -a * 2; y = 1 - -2; }");
  const auto *X = ast_cast<AssignStmt>(F->Body[0]);
  EXPECT_EQ(toString(X->value()), "((-a) * 2)");
  const auto *Y = ast_cast<AssignStmt>(F->Body[1]);
  EXPECT_EQ(toString(Y->value()), "(1 - (-2))");
}

TEST(ParserTest, Comparisons) {
  auto F = parseOk("func f(a, b) { if (a + 1 <= b * 2) { x = 1; } }");
  const auto *If = ast_cast<IfStmt>(F->Body[0]);
  EXPECT_EQ(toString(If->cond()), "((a + 1) <= (b * 2))");
}

TEST(ParserTest, LoopForms) {
  auto F = parseOk("func f(n) {"
                   "  loop L1 { break; }"
                   "  for L2: i = 1 to n by 2 { x = i; }"
                   "  for j = n downto 1 { x = j; }"
                   "  while (n > 0) { break; }"
                   "}");
  ASSERT_EQ(F->Body.size(), 4u);
  EXPECT_EQ(ast_cast<LoopStmt>(F->Body[0])->label(), "L1");
  const auto *For = ast_cast<ForStmt>(F->Body[1]);
  EXPECT_EQ(For->label(), "L2");
  EXPECT_NE(For->step(), nullptr);
  EXPECT_FALSE(For->isDown());
  const auto *Down = ast_cast<ForStmt>(F->Body[2]);
  EXPECT_TRUE(Down->isDown());
  EXPECT_EQ(Down->step(), nullptr);
  // Auto-generated labels for unlabeled loops.
  EXPECT_FALSE(Down->label().empty());
  EXPECT_FALSE(ast_cast<WhileStmt>(F->Body[3])->label().empty());
}

TEST(ParserTest, IfElseAndSingleStatementBodies) {
  auto F = parseOk("func f(a) {"
                   "  if (a > 0) x = 1; else x = 2;"
                   "  if (a > 1) { x = 3; } else { if (a > 2) x = 4; }"
                   "}");
  const auto *I1 = ast_cast<IfStmt>(F->Body[0]);
  EXPECT_EQ(I1->thenBody().size(), 1u);
  EXPECT_EQ(I1->elseBody().size(), 1u);
}

TEST(ParserTest, MultiDimArrayRefs) {
  auto F = parseOk("func f(i, j) { A[i, j+1] = A[i-1, j] + B[i]; }");
  const auto *S = ast_cast<ArrayAssignStmt>(F->Body[0]);
  EXPECT_EQ(S->indices().size(), 2u);
}

TEST(ParserTest, ReturnForms) {
  auto F = parseOk("func f(a) { if (a > 0) { return a; } return; }");
  const auto *R =
      ast_cast<ReturnStmt>(ast_cast<IfStmt>(F->Body[0])->thenBody()[0]);
  EXPECT_NE(R->value(), nullptr);
  EXPECT_EQ(ast_cast<ReturnStmt>(F->Body[1])->value(), nullptr);
}

TEST(ParserTest, RoundTripPrinting) {
  const char *Src = "func f(n) {\n"
                    "  s = 0;\n"
                    "  for L1: i = 1 to n {\n"
                    "    s = (s + i);\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  auto F = parseOk(Src);
  // Print and reparse: the ASTs must render identically.
  std::string Printed = toString(*F);
  auto F2 = parseOk(Printed);
  EXPECT_EQ(Printed, toString(*F2));
}

TEST(ParserTest, ErrorRecoveryMessages) {
  struct Case {
    const char *Src;
    const char *Expect;
  };
  const Case Cases[] = {
      {"func f() { x = ; }", "expected expression"},
      {"func f() { x 1; }", "expected '='"},
      {"func f() { for i 1 to 2 { } }", "expected '='"},
      {"func () {}", "expected function name"},
      {"func f() { if a > 0 { } }", "expected '('"},
  };
  for (const Case &C : Cases) {
    Parser P(C.Src);
    EXPECT_EQ(P.parseFunction(), nullptr) << C.Src;
    ASSERT_FALSE(P.errors().empty()) << C.Src;
    EXPECT_NE(P.errors()[0].find(C.Expect), std::string::npos)
        << C.Src << " -> " << P.errors()[0];
  }
}

TEST(ParserTest, LexErrorSurfaces) {
  Parser P("func f() { x = $; }");
  EXPECT_EQ(P.parseFunction(), nullptr);
  ASSERT_FALSE(P.errors().empty());
  EXPECT_NE(P.errors()[0].find("lex error"), std::string::npos);
}

TEST(LexerTest, HugeLiteralIsErrorTokenNotException) {
  // std::stoll would throw out_of_range on this; the lexer must instead
  // surface a diagnosable Error token (fuzzer inputs are untrusted).
  Lexer L("x = 99999999999999999999999999");
  L.next(); // x
  L.next(); // =
  Token Bad = L.next();
  EXPECT_EQ(Bad.Kind, TokenKind::Error);
  EXPECT_NE(Bad.Text.find("out of range"), std::string::npos);
  // INT64_MAX itself still lexes.
  Lexer L2("9223372036854775807");
  Token Max = L2.next();
  EXPECT_EQ(Max.Kind, TokenKind::Number);
  EXPECT_EQ(Max.Value, INT64_MAX);
  // One past INT64_MAX does not.
  Lexer L3("9223372036854775808");
  EXPECT_EQ(L3.next().Kind, TokenKind::Error);
}

TEST(ParserTest, HugeLiteralSurfacesAsLexError) {
  Parser P("func f() { return 123456789012345678901234567890; }");
  EXPECT_EQ(P.parseFunction(), nullptr);
  ASSERT_FALSE(P.errors().empty());
  EXPECT_NE(P.errors()[0].find("out of range"), std::string::npos);
}

TEST(ParserTest, TruncatedInputNeverCrashes) {
  // Every prefix of a valid program must produce a parse error or a valid
  // AST -- never an assert or exception.  (The generator never emits
  // malformed text, but the minimizer's line subsets can.)
  const std::string Src = "func f(n) {"
                          "  s = 0;"
                          "  for L1: i = 1 to n by 2 {"
                          "    if (i > 3) { s = s + A[i, 2]; } else break;"
                          "  }"
                          "  while (s < n) { s = s * 2; }"
                          "  return s;"
                          "}";
  for (size_t Len = 0; Len <= Src.size(); ++Len) {
    Parser P(Src.substr(0, Len));
    FuncDecl *F = P.parseFunction();
    if (!F) {
      EXPECT_FALSE(P.errors().empty()) << "silent failure at prefix " << Len;
    }
  }
}

//===----------------------------------------------------------------------===//
// Lowering diagnostics
//===----------------------------------------------------------------------===//

namespace {

/// Lowers \p Src expecting failure; returns the first diagnostic.
std::string lowerError(const std::string &Src) {
  std::vector<std::string> Errors;
  auto F = biv::frontend::parseAndLower(Src, Errors);
  EXPECT_EQ(F, nullptr) << Src;
  if (Errors.empty()) {
    ADD_FAILURE() << "no diagnostic for: " << Src;
    return "";
  }
  return Errors[0];
}

} // namespace

TEST(LoweringTest, UndefinedName) {
  EXPECT_NE(lowerError("func f() { x = y + 1; return x; }")
                .find("undefined name 'y'"),
            std::string::npos);
}

TEST(LoweringTest, BreakOutsideLoop) {
  EXPECT_NE(lowerError("func f() { break; }").find("'break' outside"),
            std::string::npos);
}

TEST(LoweringTest, InconsistentArrayRank) {
  EXPECT_NE(lowerError("func f(n) { A[1] = n; x = A[1, 2]; return x; }")
                .find("inconsistent rank"),
            std::string::npos);
}

TEST(LoweringTest, NameUsedAsArrayAndScalar) {
  EXPECT_NE(lowerError("func f() { A = 1; A[2] = 3; return A; }")
                .find("both array and scalar"),
            std::string::npos);
  // A parameter subscripted as an array is the same conflict.
  EXPECT_NE(lowerError("func f(A) { A[1] = 2; return 0; }")
                .find("both array and scalar"),
            std::string::npos);
}

TEST(LoweringTest, DuplicateParameterName) {
  EXPECT_NE(lowerError("func f(a, b, a) { return a; }")
                .find("duplicate parameter name 'a'"),
            std::string::npos);
}

TEST(LoweringTest, DuplicateLoopLabel) {
  EXPECT_NE(lowerError("func f(n) {"
                       "  for L: i = 1 to n { x = i; }"
                       "  for L: j = 1 to n { y = j; }"
                       "  return 0;"
                       "}")
                .find("duplicate loop label 'L'"),
            std::string::npos);
  // Auto-generated labels never collide with each other or user labels.
  std::vector<std::string> Errors;
  auto F = biv::frontend::parseAndLower("func g(n) {"
                                        "  loop { break; }"
                                        "  loop { break; }"
                                        "  while (n > 0) { break; }"
                                        "  return 0;"
                                        "}",
                                        Errors);
  EXPECT_NE(F, nullptr);
  EXPECT_TRUE(Errors.empty());
}
