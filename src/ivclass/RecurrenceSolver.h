//===- ivclass/RecurrenceSolver.h - Matrix-based recurrence solving -*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solves the c-finite recurrences the classifier extracts from a strongly
/// connected region:
///
///   X(0)    = Init
///   X(h+1)  = A * X(h) + B(h)        for h >= 0
///
/// with A a rational constant and B a ClosedForm, plus the coupled
/// constant-coefficient generalization X(h+1) = M * X(h) + B(h) over the
/// RatMatrix machinery, using the paper's method (section 4.3): pick the
/// basis functions the solution can be written in (powers of h plus
/// h^j * b^h exponential-polynomial terms), compute the first values of X
/// symbolically, build the integer matrix of basis values, solve it over the
/// rationals, and verify the fit against extra iterates.  The basis now
/// covers the resonant case A appearing in B's bases (which needs h*A^h)
/// and repeated integer eigenvalues of coupled systems; anything outside
/// the exponential-polynomial space (rational or irrational eigenvalues,
/// zero eigenvalues past order one) safely returns nullopt, never a bogus
/// form, because the verification iterates reject a wrong basis guess.
///
/// A coupled system's integer eigenvalues are sought among the divisors of
/// its characteristic polynomial's constant term.  positiveDivisors()
/// lists them from the constant's 64-bit factorisation, so the search is
/// bounded by the divisor count (at most 103,680), not by the constant's
/// size, and a candidate that overflows the rationals ends the solve as
/// "no closed form".
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_RECURRENCESOLVER_H
#define BEYONDIV_IVCLASS_RECURRENCESOLVER_H

#include "ivclass/ClosedForm.h"
#include "support/Matrix.h"
#include <optional>
#include <vector>

namespace biv {
namespace ivclass {

/// Largest coupled system solveLinearSystem() accepts: the Faddeev-
/// LeVerrier + deflation pipeline is exact-rational and its cost (and
/// overflow odds) grow fast with the dimension.  Callers that can shrink a
/// system (peeling, subsetting) should do so before handing it over.
inline constexpr unsigned MaxSystemSize = 4;

/// Solves X(h+1) = A*X(h) + B(h), X(0) = Init.  Returns the closed form of
/// X, or nullopt when the solution is outside the representable space.
std::optional<ClosedForm> solveLinearRecurrence(const Rational &A,
                                                const ClosedForm &B,
                                                const Affine &Init);

/// Solves the coupled constant-coefficient system
///
///   X(0)    = Init                  (component i starts at Init[i])
///   X(h+1)  = M * X(h) + B(h)       (component i adds forcing B[i])
///
/// over the exponential-polynomial space.  Returns one entry per component:
/// its closed form, or nullopt for components that could not be fitted.  The
/// whole vector is nullopt when the characteristic polynomial of M has roots
/// outside the nonzero integers (no component is representable then).
/// Requires M square with B.size() == Init.size() == M.rows().  Each
/// coupled solve (2 <= M.rows() <= MaxSystemSize) bumps
/// ivclass.solver.system and runs inside one phase.solver span.
std::vector<std::optional<ClosedForm>>
solveLinearSystem(const RatMatrix &M, const std::vector<ClosedForm> &B,
                  const std::vector<Affine> &Init);

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_RECURRENCESOLVER_H
