//===- ivclass/Classification.h - The paper's variable classes --*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified classification scheme of the paper: every integer scalar in a
/// loop is an invariant, a (linear/polynomial/geometric) induction variable,
/// a wrap-around variable of some order, a member of a periodic family, a
/// monotonic variable, or unknown.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_CLASSIFICATION_H
#define BEYONDIV_IVCLASS_CLASSIFICATION_H

#include "ivclass/ClosedForm.h"
#include <memory>
#include <string>
#include <vector>

namespace biv {

namespace analysis {
class Loop;
}

namespace ivclass {

/// The classes of section 2-4, plus Invariant and Unknown, plus the
/// c-finite extension beyond the paper's lattice.
enum class IVKind {
  Unknown,
  Invariant,
  Linear,     ///< (L, i, s): value i + s*h.
  Polynomial, ///< (L, i, s1..sm): value sum sk*h^k, m >= 2.
  Geometric,  ///< polynomial plus exponential terms (constant coefficients).
  CFinite,    ///< exponential terms with polynomial coefficients (h*2^h).
  WrapAround, ///< settles into another class after `order` iterations.
  Periodic,   ///< member of a rotation family with period >= 2.
  Monotonic,  ///< only the direction (and strictness) is known.
  /// Multi-branch loop summarization (beyond the paper, LoopSCC-style):
  /// the loop's taken-branch sequence cycles with period k, and the value
  /// follows a separate exact closed form on each phase of the cycle.
  PhasePeriodic,
};

/// Returns "linear", "wrap-around", ... for diagnostics.
const char *ivKindName(IVKind K);

/// Direction of a monotonic variable.
enum class MonotoneDir { Increasing, Decreasing };

/// Classification of one SSA value relative to one loop.
///
/// Closed-form kinds (Invariant/Linear/Polynomial/Geometric) carry Form; the
/// Affine symbols inside Form are values defined outside the loop, which may
/// themselves be classified in an enclosing loop -- that is the paper's
/// nested tuple, e.g. k3 = (L18, (L17, 0, 204), 2).
class Classification {
public:
  IVKind Kind = IVKind::Unknown;
  /// Loop the classification is relative to; null for Invariant/Unknown.
  const analysis::Loop *L = nullptr;

  /// True when this closed form was projected out of a strongly connected
  /// region whose full update is unsolvable (the (un)solvable-loop trick):
  /// the value itself is exact, but sibling values of its region are not.
  bool Partial = false;

  /// Closed form for Invariant/Linear/Polynomial/Geometric.
  ClosedForm Form;

  // --- WrapAround ---
  /// After Order iterations the value follows Inner's class (Figure 4).
  unsigned WrapOrder = 0;
  std::shared_ptr<Classification> Inner;

  // --- Periodic / PhasePeriodic ---
  unsigned Period = 0;
  /// Identifies the family (all members share it).
  unsigned FamilyId = 0;
  /// Position in the rotation: the member whose value at iteration h equals
  /// initial value (PhaseIndex + h) mod Period of the family's initial-value
  /// ring.
  unsigned Phase = 0;
  /// Initial values of the family in ring order (affine; distinctness is
  /// checked by the dependence tests).
  std::vector<Affine> RingInits;

  /// Affine image of a periodic member: the classified value equals
  /// PScale * member + POffset (so `2*j` keeps j's family identity and the
  /// dependence tests can still reason about it).
  Rational PScale = Rational(1);
  Affine POffset;

  // --- PhasePeriodic ---
  /// One closed form per phase of the branch cycle: the value on iteration
  /// h = Period*c + p is PhaseForms[p] evaluated at the cycle index c.
  /// PhaseForms[0] doubles as the composed whole-cycle form (the value at
  /// cycle boundaries).
  std::vector<ClosedForm> PhaseForms;

  // --- Monotonic ---
  MonotoneDir Dir = MonotoneDir::Increasing;
  bool Strict = false;
  /// All values of one monotonic SCR share a family id (like periodic
  /// families); the dependence tests use it to apply the paper's
  /// "=" -> "<=" translation only within one recurrence.
  unsigned MonoFamilyId = 0;

  //===--------------------------------------------------------------------===//
  // Factories
  //===--------------------------------------------------------------------===//

  static Classification unknown() { return Classification(); }

  static Classification invariant(Affine V) {
    Classification C;
    C.Kind = IVKind::Invariant;
    C.Form = ClosedForm::constant(std::move(V));
    return C;
  }

  /// Builds Linear/Polynomial/Geometric/Invariant from \p Form 's shape.
  static Classification fromForm(const analysis::Loop *L, ClosedForm Form);

  static Classification wrapAround(const analysis::Loop *L, unsigned Order,
                                   Classification InnerClass);

  static Classification periodic(const analysis::Loop *L, unsigned FamilyId,
                                 unsigned Period, unsigned Phase,
                                 std::vector<Affine> RingInits);

  static Classification monotonic(const analysis::Loop *L, MonotoneDir Dir,
                                  bool Strict);

  static Classification phasePeriodic(const analysis::Loop *L,
                                      unsigned Period,
                                      std::vector<ClosedForm> PhaseForms);

  //===--------------------------------------------------------------------===//
  // Predicates
  //===--------------------------------------------------------------------===//

  bool isUnknown() const { return Kind == IVKind::Unknown; }
  bool isInvariant() const { return Kind == IVKind::Invariant; }
  bool isLinear() const { return Kind == IVKind::Linear; }
  /// Any class with an exact closed form.
  bool hasClosedForm() const {
    return Kind == IVKind::Invariant || Kind == IVKind::Linear ||
           Kind == IVKind::Polynomial || Kind == IVKind::Geometric ||
           Kind == IVKind::CFinite;
  }
  /// Linear including degenerate (invariant) forms.
  bool isAffineForm() const { return hasClosedForm() && Form.isLinear(); }
  bool isMonotonic() const { return Kind == IVKind::Monotonic; }
  bool isPeriodic() const { return Kind == IVKind::Periodic; }
  bool isWrapAround() const { return Kind == IVKind::WrapAround; }
  bool isPhasePeriodic() const { return Kind == IVKind::PhasePeriodic; }

  /// For a PhasePeriodic value: true when the full iteration-order sequence
  /// value(0), value(1), ... is provably strictly monotone in \p Dir
  /// (conservative, numeric coefficients only).  This is what lets the
  /// dependence tests reuse the strict-monotonic "=" rule on summarized
  /// values.  Never throws: coefficient overflow answers false.
  bool phaseSequenceStrictly(MonotoneDir Dir) const;

  /// A flip-flop is a period-2 periodic variable; geometric base -1 forms
  /// (the paper's `j = c - j`) also satisfy this.
  bool isFlipFlop() const;

  /// The class this value follows once every wrap-around prefix has passed
  /// (Figure 4): from iteration h = Order on, the value is the returned
  /// class's value at h - Order.  Adds the prefix length to \p Order.  A
  /// class that is not a wrap-around settles into itself, and so does a
  /// wrap-around without an inner class.
  const Classification &settled(unsigned &Order) const;

  /// The value on iteration \p H >= 0: a closed form at h, a periodic
  /// member's ring slot through its PScale/POffset image, a phase-periodic
  /// tuple's phase form at the cycle index, and a wrap-around's settled
  /// value.  nullopt inside a wrap-around prefix, for monotonic and unknown
  /// values, and for a ring or phase tuple whose size is not Period.
  /// Throws RationalOverflow like ClosedForm::evaluateAt.
  std::optional<Affine> valueAt(int64_t H) const;

  /// Appends the paper's tuple syntax, e.g. "(L18, k2+2, 2)" for linear,
  /// "(L14, 2, 3/2, 1/2)" for polynomial, "wrap-around(order 1, linear ...)"
  /// etc.  \p Namer resolves affine symbols (usually to IR value names).
  void append(std::string &Out,
              const SymbolNamer &Namer = SymbolNamer()) const;
  /// The rendering of append as a string of its own.
  std::string str(const SymbolNamer &Namer = SymbolNamer()) const;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_CLASSIFICATION_H
