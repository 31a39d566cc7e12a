//===- ivclass/Classification.cpp - The paper's variable classes --------------===//

#include "ivclass/Classification.h"
#include "analysis/LoopInfo.h"

using namespace biv;
using namespace biv::ivclass;

const char *biv::ivclass::ivKindName(IVKind K) {
  switch (K) {
  case IVKind::Unknown:
    return "unknown";
  case IVKind::Invariant:
    return "invariant";
  case IVKind::Linear:
    return "linear";
  case IVKind::Polynomial:
    return "polynomial";
  case IVKind::Geometric:
    return "geometric";
  case IVKind::CFinite:
    return "c-finite";
  case IVKind::WrapAround:
    return "wrap-around";
  case IVKind::Periodic:
    return "periodic";
  case IVKind::Monotonic:
    return "monotonic";
  case IVKind::PhasePeriodic:
    return "phase-periodic";
  }
  assert(false && "unknown IVKind");
  return "<bad>";
}

Classification Classification::fromForm(const analysis::Loop *L,
                                        ClosedForm Form) {
  Classification C;
  C.Form = std::move(Form);
  if (C.Form.isInvariant()) {
    C.Kind = IVKind::Invariant;
    return C;
  }
  C.L = L;
  if (C.Form.hasPolyExponential())
    C.Kind = IVKind::CFinite;
  else if (C.Form.hasExponential())
    C.Kind = IVKind::Geometric;
  else if (C.Form.isLinear())
    C.Kind = IVKind::Linear;
  else
    C.Kind = IVKind::Polynomial;
  return C;
}

Classification Classification::wrapAround(const analysis::Loop *L,
                                          unsigned Order,
                                          Classification InnerClass) {
  Classification C;
  C.Kind = IVKind::WrapAround;
  C.L = L;
  C.WrapOrder = Order;
  C.Inner = std::make_shared<Classification>(std::move(InnerClass));
  return C;
}

Classification Classification::periodic(const analysis::Loop *L,
                                        unsigned FamilyId, unsigned Period,
                                        unsigned Phase,
                                        std::vector<Affine> RingInits) {
  assert(Period >= 2 && "periodic family needs period >= 2");
  Classification C;
  C.Kind = IVKind::Periodic;
  C.L = L;
  C.FamilyId = FamilyId;
  C.Period = Period;
  C.Phase = Phase;
  C.RingInits = std::move(RingInits);
  return C;
}

Classification Classification::monotonic(const analysis::Loop *L,
                                         MonotoneDir Dir, bool Strict) {
  Classification C;
  C.Kind = IVKind::Monotonic;
  C.L = L;
  C.Dir = Dir;
  C.Strict = Strict;
  return C;
}

Classification Classification::phasePeriodic(
    const analysis::Loop *L, unsigned Period,
    std::vector<ClosedForm> PhaseForms) {
  assert(Period >= 2 && PhaseForms.size() == Period &&
         "phase-periodic summaries need one form per phase, period >= 2");
  Classification C;
  C.Kind = IVKind::PhasePeriodic;
  C.L = L;
  C.Period = Period;
  C.PhaseForms = std::move(PhaseForms);
  return C;
}

bool Classification::phaseSequenceStrictly(MonotoneDir Dir) const {
  if (Kind != IVKind::PhasePeriodic || PhaseForms.size() != Period)
    return false;
  // The h-order sequence interleaves the phase forms: consecutive values
  // are (phase p, cycle c) -> (phase p+1, cycle c), wrapping into
  // (phase 0, cycle c+1).  Strict monotonicity holds when every
  // consecutive difference is provably >= 1 (integer sequences).
  try {
    const ClosedForm One = ClosedForm::constant(Affine(1));
    for (unsigned P = 0; P < Period; ++P) {
      ClosedForm Next;
      if (P + 1 < Period) {
        Next = PhaseForms[P + 1];
      } else {
        std::optional<ClosedForm> Wrapped = PhaseForms[0].shifted(1);
        if (!Wrapped)
          return false;
        Next = *Wrapped;
      }
      ClosedForm Diff = Dir == MonotoneDir::Increasing
                            ? Next - PhaseForms[P]
                            : PhaseForms[P] - Next;
      if (!(Diff - One).provablyNonNegative())
        return false;
    }
    return true;
  } catch (const RationalOverflow &) {
    return false;
  }
}

bool Classification::isFlipFlop() const {
  if (Kind == IVKind::Periodic)
    return Period == 2;
  if (Kind == IVKind::Geometric) {
    // c + d*(-1)^h alternates between two values (a polynomial coefficient
    // on (-1)^h would not, but those classify as CFinite).
    return Form.degree() == 0 && Form.geoTerms().size() == 1 &&
           Form.geoTerms().begin()->first == -1;
  }
  return false;
}

const Classification &Classification::settled(unsigned &Order) const {
  const Classification *C = this;
  for (; C->isWrapAround() && C->Inner; C = C->Inner.get())
    Order += C->WrapOrder;
  return *C;
}

std::optional<Affine> Classification::valueAt(int64_t H) const {
  unsigned Order = 0;
  const Classification &C = settled(Order);
  H -= int64_t(Order);
  if (H < 0)
    return std::nullopt;
  if (C.hasClosedForm())
    return C.Form.evaluateAt(H);
  // A wrap-around left unsettled (no inner class) has no Period either.
  if (C.Period < 2)
    return std::nullopt;
  if (C.isPeriodic() && C.RingInits.size() == C.Period)
    return C.RingInits[(C.Phase + uint64_t(H)) % C.Period] * C.PScale +
           C.POffset;
  if (C.isPhasePeriodic() && C.PhaseForms.size() == C.Period)
    return C.PhaseForms[uint64_t(H) % C.Period].evaluateAt(
        H / int64_t(C.Period));
  return std::nullopt;
}

void Classification::append(std::string &Out,
                            const SymbolNamer &Namer) const {
  auto loop = [&] {
    if (L)
      Out += L->name();
    else
      Out += '?';
  };
  auto number = [&](uint64_t N) { Out += std::to_string(N); };
  // Values projected out of an unsolvable region carry a marker: the form
  // is exact, but it is the solvable sub-recurrence of its region.
  if (Partial && hasClosedForm())
    Out += "partial ";
  switch (Kind) {
  case IVKind::Unknown:
    Out += "unknown";
    return;
  case IVKind::Invariant:
    Out += "invariant ";
    Form.initialValue().append(Out, Namer);
    return;
  case IVKind::Linear:
    Out += '(';
    loop();
    Out += ", ";
    Form.coeff(0).append(Out, Namer);
    Out += ", ";
    Form.coeff(1).append(Out, Namer);
    Out += ')';
    return;
  case IVKind::Polynomial:
    Out += '(';
    loop();
    for (unsigned K = 0; K <= Form.degree(); ++K) {
      Out += ", ";
      Form.coeff(K).append(Out, Namer);
    }
    Out += ')';
    return;
  case IVKind::Geometric:
  case IVKind::CFinite:
    Out += '(';
    loop();
    Out += ", ";
    Form.append(Out, Namer);
    Out += ')';
    return;
  case IVKind::WrapAround:
    Out += "wrap-around(";
    loop();
    Out += ", order ";
    number(WrapOrder);
    Out += ", ";
    if (Inner)
      Inner->append(Out, Namer);
    else
      Out += '?';
    Out += ')';
    return;
  case IVKind::Periodic:
    Out += "periodic(";
    loop();
    Out += ", period ";
    number(Period);
    Out += ", phase ";
    number(Phase);
    Out += ", inits [";
    for (size_t I = 0; I < RingInits.size(); ++I) {
      if (I)
        Out += ", ";
      RingInits[I].append(Out, Namer);
    }
    Out += ']';
    // The value is PScale * member + POffset; the identity image is implied.
    if (!PScale.isOne() || !POffset.isZero()) {
      Out += ", scale ";
      PScale.append(Out);
      Out += ", offset ";
      POffset.append(Out, Namer);
    }
    Out += ')';
    return;
  case IVKind::Monotonic:
    Out += "monotonic ";
    if (Strict)
      Out += "strictly ";
    Out += Dir == MonotoneDir::Increasing ? "increasing" : "decreasing";
    Out += " (";
    loop();
    Out += ')';
    return;
  case IVKind::PhasePeriodic:
    // Phase forms are functions of the cycle index: the value on iteration
    // h = period*c + p is the p-th form at c (the rendered variable h is
    // that cycle index).  Form 0 is also the composed whole-cycle form.
    Out += "phase-periodic(";
    loop();
    Out += ", period ";
    number(Period);
    Out += ", [";
    for (size_t I = 0; I < PhaseForms.size(); ++I) {
      if (I)
        Out += " ; ";
      PhaseForms[I].append(Out, Namer);
    }
    Out += "])";
    return;
  }
  assert(false && "unknown IVKind");
}

std::string Classification::str(const SymbolNamer &Namer) const {
  std::string Out;
  append(Out, Namer);
  return Out;
}
