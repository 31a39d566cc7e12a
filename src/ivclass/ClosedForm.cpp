//===- ivclass/ClosedForm.cpp - Closed forms of recurrences -------------------===//

#include "ivclass/ClosedForm.h"

using namespace biv;
using namespace biv::ivclass;

namespace {

void trimTrailingZeros(std::vector<Affine> &P) {
  while (!P.empty() && P.back().isZero())
    P.pop_back();
}

} // namespace

void ClosedForm::normalize() {
  trimTrailingZeros(Poly);
  for (auto It = Geo.begin(); It != Geo.end();) {
    assert(It->first != 0 && It->first != 1 && "degenerate exponential base");
    trimTrailingZeros(It->second);
    if (It->second.empty())
      It = Geo.erase(It);
    else
      ++It;
  }
}

ClosedForm ClosedForm::constant(Affine C) {
  ClosedForm F;
  if (!C.isZero())
    F.Poly.push_back(std::move(C));
  return F;
}

ClosedForm ClosedForm::counter() { return linear(Affine(0), Affine(1)); }

ClosedForm ClosedForm::linear(Affine Init, Affine Step) {
  ClosedForm F;
  F.Poly.push_back(std::move(Init));
  F.Poly.push_back(std::move(Step));
  F.normalize();
  return F;
}

ClosedForm ClosedForm::make(std::vector<Affine> Poly,
                            std::map<int64_t, Affine> Geo) {
  std::map<int64_t, ExpPoly> Wide;
  for (auto &[Base, Coeff] : Geo)
    Wide[Base] = {std::move(Coeff)};
  return makeExp(std::move(Poly), std::move(Wide));
}

ClosedForm ClosedForm::makeExp(std::vector<Affine> Poly,
                               std::map<int64_t, ExpPoly> Geo) {
  ClosedForm F;
  F.Poly = std::move(Poly);
  for (auto &[Base, Coeff] : Geo) {
    if (Base == 1) {
      // Base-1 exponentials are plain polynomial terms.
      if (F.Poly.size() < Coeff.size())
        F.Poly.resize(Coeff.size());
      for (size_t J = 0; J < Coeff.size(); ++J)
        F.Poly[J] += Coeff[J];
      continue;
    }
    F.Geo[Base] = std::move(Coeff);
  }
  F.normalize();
  return F;
}

Affine ClosedForm::initialValue() const {
  Affine V = coeff(0);
  for (const auto &[Base, Coeff] : Geo) {
    (void)Base; // b^0 == 1 and h^j vanishes at h = 0 for j > 0
    if (!Coeff.empty())
      V += Coeff[0];
  }
  return V;
}

ClosedForm ClosedForm::operator-() const {
  ClosedForm F;
  for (const Affine &C : Poly)
    F.Poly.push_back(-C);
  for (const auto &[Base, Coeff] : Geo) {
    ExpPoly N;
    for (const Affine &C : Coeff)
      N.push_back(-C);
    F.Geo[Base] = std::move(N);
  }
  return F;
}

ClosedForm ClosedForm::operator+(const ClosedForm &RHS) const {
  ClosedForm F = *this;
  if (F.Poly.size() < RHS.Poly.size())
    F.Poly.resize(RHS.Poly.size());
  for (size_t K = 0; K < RHS.Poly.size(); ++K)
    F.Poly[K] += RHS.Poly[K];
  for (const auto &[Base, Coeff] : RHS.Geo) {
    ExpPoly &Dst = F.Geo[Base];
    if (Dst.size() < Coeff.size())
      Dst.resize(Coeff.size());
    for (size_t J = 0; J < Coeff.size(); ++J)
      Dst[J] += Coeff[J];
  }
  F.normalize();
  return F;
}

ClosedForm ClosedForm::operator-(const ClosedForm &RHS) const {
  // Mirrors operator+ with binary subtraction per coefficient: negating
  // RHS first would throw on INT64_MIN coefficients whose difference fits.
  ClosedForm F = *this;
  if (F.Poly.size() < RHS.Poly.size())
    F.Poly.resize(RHS.Poly.size());
  for (size_t K = 0; K < RHS.Poly.size(); ++K)
    F.Poly[K] -= RHS.Poly[K];
  for (const auto &[Base, Coeff] : RHS.Geo) {
    ExpPoly &Dst = F.Geo[Base]; // default-constructs empty when absent
    if (Dst.size() < Coeff.size())
      Dst.resize(Coeff.size());
    for (size_t J = 0; J < Coeff.size(); ++J)
      Dst[J] -= Coeff[J];
  }
  F.normalize();
  return F;
}

ClosedForm ClosedForm::operator*(const Rational &Scale) const {
  ClosedForm F;
  if (Scale.isZero())
    return F;
  for (const Affine &C : Poly)
    F.Poly.push_back(C * Scale);
  for (const auto &[Base, Coeff] : Geo) {
    ExpPoly N;
    for (const Affine &C : Coeff)
      N.push_back(C * Scale);
    F.Geo[Base] = std::move(N);
  }
  return F;
}

std::optional<ClosedForm> ClosedForm::mulChecked(const ClosedForm &RHS) const {
  // Every pairwise coefficient product must keep at least one affine side
  // constant (Affine::mul); the h/b structure itself is always closed under
  // multiplication in the exponential-polynomial space.
  ClosedForm F;
  // Polynomial x polynomial: coefficient convolution.
  if (!Poly.empty() && !RHS.Poly.empty()) {
    F.Poly.assign(Poly.size() + RHS.Poly.size() - 1, Affine());
    for (size_t I = 0; I < Poly.size(); ++I)
      for (size_t J = 0; J < RHS.Poly.size(); ++J) {
        if (Poly[I].isZero() || RHS.Poly[J].isZero())
          continue;
        std::optional<Affine> P = Affine::mul(Poly[I], RHS.Poly[J]);
        if (!P)
          return std::nullopt;
        F.Poly[I + J] += *P;
      }
  }
  // Adds Coeff * h^Shift * Base^h into the accumulating form, folding
  // base 1 into the polynomial part.
  auto addExp = [&](int64_t Base, const ExpPoly &Coeff,
                    size_t Shift) -> bool {
    std::vector<Affine> &Dst = Base == 1 ? F.Poly : F.Geo[Base];
    if (Dst.size() < Coeff.size() + Shift)
      Dst.resize(Coeff.size() + Shift);
    for (size_t J = 0; J < Coeff.size(); ++J)
      Dst[J + Shift] += Coeff[J];
    return true;
  };
  // Exponential x exponential: bases multiply, coefficients convolve.
  for (const auto &[B1, C1] : Geo)
    for (const auto &[B2, C2] : RHS.Geo) {
      ExpPoly Conv(C1.size() + C2.size() - 1, Affine());
      for (size_t I = 0; I < C1.size(); ++I)
        for (size_t J = 0; J < C2.size(); ++J) {
          if (C1[I].isZero() || C2[J].isZero())
            continue;
          std::optional<Affine> P = Affine::mul(C1[I], C2[J]);
          if (!P)
            return std::nullopt;
          Conv[I + J] += *P;
        }
      addExp(B1 * B2, Conv, 0);
    }
  // Polynomial x exponential cross terms: h^k * (p(h) * b^h) shifts the
  // coefficient polynomial by k.
  auto crossTerms = [&](const std::vector<Affine> &P,
                        const std::map<int64_t, ExpPoly> &G) -> bool {
    for (size_t K = 0; K < P.size(); ++K) {
      if (P[K].isZero())
        continue;
      for (const auto &[Base, Coeff] : G) {
        ExpPoly Scaled;
        for (const Affine &C : Coeff) {
          std::optional<Affine> Prod = Affine::mul(P[K], C);
          if (!Prod)
            return false;
          Scaled.push_back(*Prod);
        }
        addExp(Base, Scaled, K);
      }
    }
    return true;
  };
  if (!crossTerms(Poly, RHS.Geo) || !crossTerms(RHS.Poly, Geo))
    return std::nullopt;
  F.normalize();
  return F;
}

Affine ClosedForm::evaluateAt(int64_t H) const {
  assert(H >= 0 && "iterations are numbered from zero");
  Affine V;
  Rational HPow(1);
  for (size_t K = 0; K < Poly.size(); ++K) {
    V += Poly[K] * HPow;
    HPow *= Rational(H);
  }
  for (const auto &[Base, Coeff] : Geo) {
    Rational BPow = Rational(Base).pow(H);
    Rational HP(1);
    for (size_t J = 0; J < Coeff.size(); ++J) {
      V += Coeff[J] * (HP * BPow);
      HP *= Rational(H);
    }
  }
  return V;
}

std::optional<ClosedForm> ClosedForm::shifted(int64_t Delta) const {
  ClosedForm F;
  // Substitutes (h + Delta)^k via binomial expansion into Dst (index = new
  // power of h), scaling every contribution by Scale.
  auto shiftPoly = [&](const std::vector<Affine> &Src,
                       std::vector<Affine> &Dst, const Rational &Scale) {
    if (Dst.size() < Src.size())
      Dst.resize(Src.size());
    for (size_t K = 0; K < Src.size(); ++K) {
      if (Src[K].isZero())
        continue;
      // (h+D)^K = sum_j C(K,j) D^(K-j) h^j.
      Rational Binom(1); // C(K, 0)
      for (size_t J = 0; J <= K; ++J) {
        Rational Term =
            Binom * Rational(Delta).pow(static_cast<int64_t>(K - J));
        Dst[J] += Src[K] * (Term * Scale);
        // C(K, J+1) = C(K, J) * (K-J) / (J+1).
        Binom = Binom * Rational(static_cast<int64_t>(K - J)) /
                Rational(static_cast<int64_t>(J + 1));
      }
    }
  };
  shiftPoly(Poly, F.Poly, Rational(1));
  // Exponential part: p(h+D) * b^(h+D) = (p(h+D) * b^D) * b^h.
  for (const auto &[Base, Coeff] : Geo) {
    if (Base == 0)
      return std::nullopt;
    ExpPoly Dst;
    shiftPoly(Coeff, Dst, Rational(Base).pow(Delta));
    F.Geo[Base] = std::move(Dst);
  }
  F.normalize();
  return F;
}

std::optional<ClosedForm> ClosedForm::atLinear(int64_t K, int64_t P) const {
  assert(K >= 1 && P >= 0 && "stretch needs a forward affine reindexing");
  if (K == 1 && P == 0)
    return *this; // The identity, asked for by every closed-form trip count.
  // Substitutes (K*c + P)^k via binomial expansion into Dst (index = power
  // of c), scaling every contribution by Scale.
  auto stretchPoly = [&](const std::vector<Affine> &Src,
                         std::vector<Affine> &Dst, const Rational &Scale) {
    if (Dst.size() < Src.size())
      Dst.resize(Src.size());
    for (size_t N = 0; N < Src.size(); ++N) {
      if (Src[N].isZero())
        continue;
      // (K*c + P)^N = sum_j C(N,j) K^j P^(N-j) c^j.
      Rational Binom(1); // C(N, 0)
      for (size_t J = 0; J <= N; ++J) {
        Rational Term = Binom * Rational(K).pow(static_cast<int64_t>(J)) *
                        Rational(P).pow(static_cast<int64_t>(N - J));
        Dst[J] += Src[N] * (Term * Scale);
        Binom = Binom * Rational(static_cast<int64_t>(N - J)) /
                Rational(static_cast<int64_t>(J + 1));
      }
    }
  };
  std::vector<Affine> NewPoly;
  stretchPoly(Poly, NewPoly, Rational(1));
  std::map<int64_t, ExpPoly> NewGeo;
  // p(h) * b^h at h = K*c+P is (p(K*c+P) * b^P) * (b^K)^c.
  for (const auto &[Base, Coeff] : Geo) {
    Rational Stretched = Rational(Base).pow(K);
    if (!Stretched.isInteger())
      return std::nullopt;
    int64_t NewBase = Stretched.getInteger();
    ExpPoly Dst = NewGeo.count(NewBase) ? NewGeo[NewBase] : ExpPoly();
    stretchPoly(Coeff, Dst, Rational(Base).pow(P));
    NewGeo[NewBase] = std::move(Dst);
  }
  // makeExp folds base-1 terms ((-1)^h stretched by an even K) into the
  // polynomial part and normalizes.
  return makeExp(std::move(NewPoly), std::move(NewGeo));
}

std::optional<Affine> ClosedForm::evaluateAtAffine(const Affine &TC) const {
  if (!isLinear())
    return std::nullopt;
  std::optional<Affine> StepTimesTC = Affine::mul(coeff(1), TC);
  if (!StepTimesTC)
    return std::nullopt;
  return coeff(0) + *StepTimesTC;
}

bool ClosedForm::provablyNonDecreasing() const {
  // Differences: d(h) = value(h+1) - value(h); require numeric coefficients
  // that are all >= 0 (then d(h) >= 0 for every h >= 0).
  std::optional<ClosedForm> Next = shifted(1);
  if (!Next)
    return false;
  return (*Next - *this).provablyNonNegative();
}

bool ClosedForm::provablyIncreasing() const {
  std::optional<ClosedForm> Next = shifted(1);
  if (!Next)
    return false;
  ClosedForm Diff = *Next - *this;
  // Strictly positive: non-negative and value(0) of the difference > 0 with
  // every coefficient numeric and >= 0 (so it can never dip back to zero)...
  // except that a zero difference form must be rejected.
  if (!Diff.provablyNonNegative())
    return false;
  std::optional<Rational> At0 = Diff.evaluateAt(0).getConstant();
  return At0 && At0->isPositive();
}

bool ClosedForm::provablyNonNegative() const {
  // Conservative: every coefficient numeric and >= 0, and exponential bases
  // positive (so every h^j * b^h term is >= 0 for h >= 0).
  for (const Affine &C : Poly) {
    std::optional<Rational> V = C.getConstant();
    if (!V || V->isNegative())
      return false;
  }
  for (const auto &[Base, Coeff] : Geo) {
    if (Base <= 0)
      return false;
    for (const Affine &C : Coeff) {
      std::optional<Rational> V = C.getConstant();
      if (!V || V->isNegative())
        return false;
    }
  }
  return true;
}

void ClosedForm::append(std::string &Out, const SymbolNamer &Namer) const {
  if (isZero()) {
    Out += '0';
    return;
  }
  bool Leading = true;
  // Appends a term's sign and coefficient.  Before a basis (h^k, b^h) a
  // coefficient of 1 is dropped and a multi-term one parenthesized; the
  // caller appends the basis.
  auto coefficient = [&](const Affine &Coeff, bool HasBasis) {
    bool Negated = Coeff.isConstant() && Coeff.constantPart().isNegative();
    if (!Leading)
      Out += Negated ? " - " : " + ";
    else if (Negated)
      Out += '-';
    Leading = false;
    const size_t At = Out.size();
    if (Negated)
      (-Coeff.constantPart()).append(Out);
    else
      Coeff.append(Out, Namer);
    if (!HasBasis)
      return;
    if (Out.compare(At, std::string::npos, "1") == 0) {
      Out.resize(At);
      return;
    }
    if (Out.find(' ', At) != std::string::npos) {
      Out.insert(At, 1, '(');
      Out += ')';
    }
    Out += '*';
  };
  auto hPow = [&](size_t K) {
    if (K == 0)
      return;
    Out += 'h';
    if (K > 1) {
      Out += '^';
      Out += std::to_string(K);
    }
  };
  for (size_t K = 0; K < Poly.size(); ++K) {
    if (Poly[K].isZero())
      continue;
    coefficient(Poly[K], K > 0);
    hPow(K);
  }
  // Bases ascend (int64-keyed map), coefficient powers ascend within one
  // base: the order is a function of the form's value, never of pointers.
  for (const auto &[Base, Coeff] : Geo) {
    for (size_t J = 0; J < Coeff.size(); ++J) {
      if (Coeff[J].isZero())
        continue;
      coefficient(Coeff[J], true);
      if (J) {
        hPow(J);
        Out += '*';
      }
      if (Base < 0)
        Out += '(';
      Out += std::to_string(Base);
      if (Base < 0)
        Out += ')';
      Out += "^h";
    }
  }
}

std::string ClosedForm::str(const SymbolNamer &Namer) const {
  std::string Out;
  append(Out, Namer);
  return Out;
}
