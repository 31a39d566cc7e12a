//===- frontend/AST.h - Abstract syntax tree --------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the BeyondIV loop language.
///
/// Grammar sketch (see Parser.cpp for details):
/// \code
///   func   ::= 'func' ident '(' params? ')' block
///   stmt   ::= ident '=' expr ';'
///            | ident '[' exprs ']' '=' expr ';'
///            | 'if' '(' expr ')' block-or-stmt ('else' block-or-stmt)?
///            | 'loop' ident? block
///            | 'for' (ident ':')? ident '=' expr ('to'|'downto') expr
///              ('by' expr)? block
///            | 'while' '(' expr ')' block
///            | 'break' ';'  | 'return' expr? ';'
///   expr   ::= comparison over +,-,*,/,^ with unary minus
/// \endcode
///
/// Memory architecture (DESIGN.md §11): nodes are allocated from the owning
/// Parser's arena and never individually freed -- they are trivially
/// destructible (no vtables, no owning containers) and the whole tree goes
/// away when the parser does.  Names are interned: each node carries the
/// dense per-unit Symbol plus a string_view of the arena-backed spelling, so
/// lowering works on u32s while diagnostics and pretty-printing keep the
/// text at hand.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_FRONTEND_AST_H
#define BEYONDIV_FRONTEND_AST_H

#include "frontend/Token.h"
#include "support/Arena.h"
#include "support/StringInterner.h"
#include <cassert>
#include <string>
#include <string_view>

namespace biv {
namespace frontend {

class Expr;
class Stmt;

/// Child lists live in the parser's arena alongside the nodes.
using ExprList = support::ArenaVector<Expr *>;
using StmtList = support::ArenaVector<Stmt *>;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind { IntLit, VarRef, ArrayRef, Binary, Unary };

/// Binary operators; the comparison operators only appear in conditions but
/// the grammar does not enforce that.
enum class BinOp { Add, Sub, Mul, Div, Pow, EQ, NE, LT, LE, GT, GE };

/// Returns the surface spelling of \p Op (e.g. "+", "<=").
const char *binOpSpelling(BinOp Op);

class Expr {
public:
  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;

  ExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

protected:
  Expr(ExprKind K, SourceLoc L) : Kind(K), Loc(L) {}
  ~Expr() = default;

private:
  ExprKind Kind;
  SourceLoc Loc;
};

class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t V, SourceLoc L) : Expr(ExprKind::IntLit, L), Val(V) {}
  int64_t value() const { return Val; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntLit; }

private:
  int64_t Val;
};

class VarRefExpr : public Expr {
public:
  VarRefExpr(std::string_view N, support::Symbol S, SourceLoc L)
      : Expr(ExprKind::VarRef, L), Name(N), Sym(S) {}
  std::string_view name() const { return Name; }
  support::Symbol sym() const { return Sym; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::VarRef; }

private:
  std::string_view Name;
  support::Symbol Sym;
};

class ArrayRefExpr : public Expr {
public:
  ArrayRefExpr(std::string_view N, support::Symbol S, ExprList Idx,
               SourceLoc L)
      : Expr(ExprKind::ArrayRef, L), Name(N), Sym(S), Indices(Idx) {}
  std::string_view name() const { return Name; }
  support::Symbol sym() const { return Sym; }
  const ExprList &indices() const { return Indices; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ArrayRef;
  }

private:
  std::string_view Name;
  support::Symbol Sym;
  ExprList Indices;
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinOp Op, Expr *L, Expr *R, SourceLoc Loc)
      : Expr(ExprKind::Binary, Loc), Op(Op), LHS(L), RHS(R) {}
  BinOp op() const { return Op; }
  const Expr *lhs() const { return LHS; }
  const Expr *rhs() const { return RHS; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  BinOp Op;
  Expr *LHS, *RHS;
};

/// Unary minus.
class UnaryExpr : public Expr {
public:
  UnaryExpr(Expr *S, SourceLoc L) : Expr(ExprKind::Unary, L), Sub(S) {}
  const Expr *sub() const { return Sub; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  Expr *Sub;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind { Assign, ArrayAssign, If, Loop, For, While, Break,
                      Return };

class Stmt {
public:
  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;

  StmtKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

protected:
  Stmt(StmtKind K, SourceLoc L) : Kind(K), Loc(L) {}
  ~Stmt() = default;

private:
  StmtKind Kind;
  SourceLoc Loc;
};

class AssignStmt : public Stmt {
public:
  AssignStmt(std::string_view N, support::Symbol S, Expr *V, SourceLoc L)
      : Stmt(StmtKind::Assign, L), Name(N), Sym(S), Val(V) {}
  std::string_view name() const { return Name; }
  support::Symbol sym() const { return Sym; }
  const Expr *value() const { return Val; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

private:
  std::string_view Name;
  support::Symbol Sym;
  Expr *Val;
};

class ArrayAssignStmt : public Stmt {
public:
  ArrayAssignStmt(std::string_view N, support::Symbol S, ExprList Idx,
                  Expr *V, SourceLoc L)
      : Stmt(StmtKind::ArrayAssign, L), Name(N), Sym(S), Indices(Idx),
        Val(V) {}
  std::string_view name() const { return Name; }
  support::Symbol sym() const { return Sym; }
  const ExprList &indices() const { return Indices; }
  const Expr *value() const { return Val; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayAssign;
  }

private:
  std::string_view Name;
  support::Symbol Sym;
  ExprList Indices;
  Expr *Val;
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *C, StmtList T, StmtList E, SourceLoc L)
      : Stmt(StmtKind::If, L), Cond(C), Then(T), Else(E) {}
  const Expr *cond() const { return Cond; }
  const StmtList &thenBody() const { return Then; }
  const StmtList &elseBody() const { return Else; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  Expr *Cond;
  StmtList Then, Else;
};

/// The paper's `loop ... endloop`: an unconditional loop exited by `break`.
class LoopStmt : public Stmt {
public:
  LoopStmt(std::string_view Label, support::Symbol LabelS, StmtList B,
           SourceLoc L)
      : Stmt(StmtKind::Loop, L), Label(Label), LabelSym(LabelS), Body(B) {}
  std::string_view label() const { return Label; }
  support::Symbol labelSym() const { return LabelSym; }
  const StmtList &body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Loop; }

private:
  std::string_view Label;
  support::Symbol LabelSym;
  StmtList Body;
};

/// `for [L:] v = lo to hi [by s]` (or `downto`, stepping negatively).
class ForStmt : public Stmt {
public:
  ForStmt(std::string_view Label, support::Symbol LabelS, std::string_view Var,
          support::Symbol VarS, Expr *Lo, Expr *Hi, Expr *Step, bool Down,
          StmtList B, SourceLoc L)
      : Stmt(StmtKind::For, L), Label(Label), Var(Var), LabelSym(LabelS),
        VarSym(VarS), Lo(Lo), Hi(Hi), Step(Step), Down(Down), Body(B) {}
  std::string_view label() const { return Label; }
  support::Symbol labelSym() const { return LabelSym; }
  std::string_view var() const { return Var; }
  support::Symbol varSym() const { return VarSym; }
  const Expr *lo() const { return Lo; }
  const Expr *hi() const { return Hi; }
  /// Null means step 1 (or -1 when counting down).
  const Expr *step() const { return Step; }
  bool isDown() const { return Down; }
  const StmtList &body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::For; }

private:
  std::string_view Label, Var;
  support::Symbol LabelSym, VarSym;
  Expr *Lo, *Hi, *Step;
  bool Down;
  StmtList Body;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(std::string_view Label, support::Symbol LabelS, Expr *C,
            StmtList B, SourceLoc L)
      : Stmt(StmtKind::While, L), Label(Label), LabelSym(LabelS), Cond(C),
        Body(B) {}
  std::string_view label() const { return Label; }
  support::Symbol labelSym() const { return LabelSym; }
  const Expr *cond() const { return Cond; }
  const StmtList &body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }

private:
  std::string_view Label;
  support::Symbol LabelSym;
  Expr *Cond;
  StmtList Body;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc L) : Stmt(StmtKind::Break, L) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Break; }
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *V, SourceLoc L) : Stmt(StmtKind::Return, L), Val(V) {}
  /// Null for a bare `return;`.
  const Expr *value() const { return Val; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Return; }

private:
  Expr *Val;
};

/// A formal parameter: interned name plus its symbol.
struct ParamDecl {
  std::string_view Name;
  support::Symbol Sym = support::NoSymbol;
};

/// A parsed `func` declaration.  Arena-allocated like every node; Strings is
/// the parser's interner, letting lowering size dense symbol-indexed tables
/// (and resolve symbols to spellings) without rehashing anything.
struct FuncDecl {
  std::string_view Name;
  support::Symbol NameSym = support::NoSymbol;
  support::ArenaVector<ParamDecl> Params;
  StmtList Body;
  SourceLoc Loc;
  const support::StringInterner *Strings = nullptr;
};

/// LLVM-style casts over Expr/Stmt (kind-tag based, no RTTI).
template <typename To, typename From> const To *ast_cast(const From *N) {
  assert(To::classof(N) && "bad AST cast");
  return static_cast<const To *>(N);
}
template <typename To, typename From> const To *ast_dyn_cast(const From *N) {
  return N && To::classof(N) ? static_cast<const To *>(N) : nullptr;
}

/// Renders an expression back to surface syntax (for diagnostics/tests).
std::string toString(const Expr *E);

/// Renders a statement list with two-space indentation.
std::string toString(const StmtList &Body, unsigned Indent = 0);

/// Renders a whole function.
std::string toString(const FuncDecl &F);

} // namespace frontend
} // namespace biv

#endif // BEYONDIV_FRONTEND_AST_H
