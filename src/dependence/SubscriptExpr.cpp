//===- dependence/SubscriptExpr.cpp - Classified subscripts --------------------===//

#include "dependence/SubscriptExpr.h"

using namespace biv;
using namespace biv::dependence;

std::string LinearSubscript::str(const SymbolNamer &Namer) const {
  std::string Out = Const.str(Namer);
  for (const auto &[L, C] : Coeff) {
    if (C.isZero())
      continue;
    std::string CS = C.str(Namer);
    if (CS.find(' ') != std::string::npos)
      CS = "(" + CS + ")";
    Out += " + " + CS + "*h(" + L->name() + ")";
  }
  return Out;
}

namespace {

bool addSettled(ivclass::InductionAnalysis &IA,
                const ivclass::Classification &C, const analysis::Loop *L,
                const Rational &Scale, LinearSubscript &Out, unsigned Depth,
                unsigned &SettleOrder);

/// Expands every symbol of \p A that is itself a linear IV of an enclosing
/// loop, or settles into one; adds results into \p Out.  Returns false when
/// a symbol has a non-affine classification (the subscript is not linear
/// across the nest).
bool expandAffine(ivclass::InductionAnalysis &IA, const Affine &A,
                  const Rational &Scale, LinearSubscript &Out, unsigned Depth,
                  unsigned &SettleOrder) {
  if (Depth == 0)
    return false;
  Out.Const += Affine(A.constantPart() * Scale);
  for (const auto &[Sym, C] : A.terms()) {
    Rational SC = C * Scale;
    const auto *V = static_cast<const ir::Value *>(Sym);
    const analysis::Loop *SymLoop = nullptr;
    if (const auto *I = ir::dyn_cast<ir::Instruction>(V))
      SymLoop = IA.loopInfo().loopFor(I->parent());
    const ivclass::Classification *SymC =
        SymLoop ? &IA.classify(V, SymLoop) : nullptr;
    if (!SymC || SymC->isInvariant())
      Out.Const += Affine::symbol(Sym) * SC;
    else if (!addSettled(IA, *SymC, SymLoop, SC, Out, Depth - 1, SettleOrder))
      return false;
  }
  return true;
}

/// Adds \p Scale times the value that \p C (a class relative to \p L)
/// settles into: past the settle order W it is init + step*(h - W), so
/// Scale*step goes on L's counter and init - W*step is expanded.  Raises
/// \p SettleOrder to W.  Returns false when the settled class is not
/// affine.
bool addSettled(ivclass::InductionAnalysis &IA,
                const ivclass::Classification &C, const analysis::Loop *L,
                const Rational &Scale, LinearSubscript &Out, unsigned Depth,
                unsigned &SettleOrder) {
  unsigned W = 0;
  const ivclass::Classification &S = C.settled(W);
  if (!S.isAffineForm())
    return false;
  const Affine Step = S.Form.coeff(1);
  Affine Init = S.Form.coeff(0);
  if (!Step.isZero())
    Out.Coeff[L] += Step * Scale;
  if (W) {
    Init -= Step * Rational(int64_t(W));
    SettleOrder = std::max(SettleOrder, W);
  }
  return expandAffine(IA, Init, Scale, Out, Depth, SettleOrder);
}

} // namespace

SubscriptInfo biv::dependence::classifySubscript(ivclass::InductionAnalysis &IA,
                                                 const ir::Value *Sub,
                                                 const analysis::Loop *AtLoop) {
  SubscriptInfo Info;
  Info.Class = AtLoop ? IA.classify(Sub, AtLoop)
                      : IA.classifyExternal(Sub, nullptr);
  LinearSubscript Lin;
  unsigned Order = 0;
  if (addSettled(IA, Info.Class, AtLoop, Rational(1), Lin, 8, Order)) {
    // Drop zero coefficients for a canonical shape.
    for (auto It = Lin.Coeff.begin(); It != Lin.Coeff.end();)
      It = It->second.isZero() ? Lin.Coeff.erase(It) : std::next(It);
    Info.Linear = std::move(Lin);
    Info.SettleOrder = Order;
  }
  return Info;
}
