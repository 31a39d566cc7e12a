//===- support/Affine.cpp - Affine symbolic expressions -------------------===//

#include "support/Affine.h"
#include <algorithm>
#include <vector>

using namespace biv;

Affine Affine::symbol(SymbolRef Sym) {
  Affine A;
  A.Terms[Sym] = Rational(1);
  return A;
}

Rational Affine::coefficientOf(SymbolRef Sym) const {
  auto It = Terms.find(Sym);
  return It == Terms.end() ? Rational() : It->second;
}

Affine Affine::operator-() const {
  Affine Result;
  Result.Constant = -Constant;
  for (const auto &[Sym, Coeff] : Terms)
    Result.Terms[Sym] = -Coeff;
  return Result;
}

Affine Affine::operator+(const Affine &RHS) const {
  Affine Result = *this;
  Result.Constant += RHS.Constant;
  for (const auto &[Sym, Coeff] : RHS.Terms) {
    Rational Sum = Result.coefficientOf(Sym) + Coeff;
    if (Sum.isZero())
      Result.Terms.erase(Sym);
    else
      Result.Terms[Sym] = Sum;
  }
  return Result;
}

Affine Affine::operator-(const Affine &RHS) const {
  // Coefficient-wise binary subtraction; *this + (-RHS) would overflow on
  // any RHS coefficient of INT64_MIN even when the difference fits.
  Affine Result = *this;
  Result.Constant = Result.Constant - RHS.Constant;
  for (const auto &[Sym, Coeff] : RHS.Terms) {
    Rational Diff = Result.coefficientOf(Sym) - Coeff;
    if (Diff.isZero())
      Result.Terms.erase(Sym);
    else
      Result.Terms[Sym] = Diff;
  }
  return Result;
}

Affine Affine::operator*(const Rational &Scale) const {
  Affine Result;
  if (Scale.isZero())
    return Result;
  Result.Constant = Constant * Scale;
  for (const auto &[Sym, Coeff] : Terms)
    Result.Terms[Sym] = Coeff * Scale;
  return Result;
}

std::optional<Affine> Affine::mul(const Affine &A, const Affine &B) {
  if (auto C = A.getConstant())
    return B * *C;
  if (auto C = B.getConstant())
    return A * *C;
  return std::nullopt;
}

void Affine::append(std::string &Out, const SymbolNamer &Namer) const {
  auto name = [&](SymbolRef Sym) {
    if (Namer)
      Namer(Out, Sym);
    else
      Out += "sym";
  };
  // A term's sign and coefficient, up to its name: "", "-" or "2*" when it
  // leads the expression, else " + ", " - 2*" and the like.
  auto coefficient = [&](const Rational &Coeff, bool Leading) {
    if (Leading) {
      if (Coeff == Rational(-1)) {
        Out += '-';
      } else if (Coeff != Rational(1)) {
        Coeff.append(Out);
        Out += '*';
      }
      return;
    }
    if (Coeff.isNegative()) {
      Out += " - ";
      Rational Abs = -Coeff;
      if (!Abs.isOne()) {
        Abs.append(Out);
        Out += '*';
      }
    } else {
      Out += " + ";
      if (!Coeff.isOne()) {
        Coeff.append(Out);
        Out += '*';
      }
    }
  };

  const bool ConstantShown = !Constant.isZero() || Terms.empty();
  if (ConstantShown)
    Constant.append(Out);

  // Render terms in (name, coefficient) order: Terms is keyed by symbol
  // pointer, and allocation order must never leak into output (reports are
  // byte-compared across batch worker counts and across runs).  Each name
  // is rendered once, past the end of the output, and copied behind its
  // coefficient once the order is known.
  struct Term {
    size_t At, Len;
    const Rational *Coeff;
  };
  std::vector<Term> Ts;
  Ts.reserve(Terms.size());
  const size_t NamesAt = Out.size();
  for (const auto &[Sym, Coeff] : Terms) {
    size_t At = Out.size();
    name(Sym);
    Ts.push_back({At, Out.size() - At, &Coeff});
  }
  const size_t NamesLen = Out.size() - NamesAt;
  std::sort(Ts.begin(), Ts.end(), [&](const Term &A, const Term &B) {
    if (int C = Out.compare(A.At, A.Len, Out, B.At, B.Len))
      return C < 0;
    return *A.Coeff < *B.Coeff;
  });
  for (size_t I = 0; I < Ts.size(); ++I) {
    coefficient(*Ts[I].Coeff, I == 0 && !ConstantShown);
    Out.append(Out, Ts[I].At, Ts[I].Len);
  }
  Out.erase(NamesAt, NamesLen);
}

std::string Affine::str(const SymbolNamer &Namer) const {
  std::string Out;
  append(Out, Namer);
  return Out;
}
