//===- ivclass/TripCount.h - Loop trip counts -------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trip counts from exit conditions (paper section 5.2).
///
/// The loop-exit comparison is normalized to "stay while a < b", the margin
/// E = b - a is classified as a linear induction expression (L, i, s), and
///
///     tripcount = 0               if i <= 0
///                 ceil(i / -s)    if i > 0 and s < 0
///                 infinite        if i > 0 and s >= 0
///
/// One rule serves closed forms and the summarizer's phase-periodic tuples:
/// both operands become forms in the cycle index c at h = W + K*c + p, one
/// margin per phase p, and the count is the first failing h over the
/// phases.  Two closed forms are K = 1, W = 0; a tuple of period K that an
/// operand settles into after W wrap-around iterations gives an upper bound
/// when W > 0.  Equality compares and symbolic unit-step counts (guarded:
/// valid only when positive) are closed-form only.  Every count is checked
/// against int64 wrap-around at the iteration where the exit fires.
///
/// The trip count is defined as the number of stay decisions the exit test
/// makes; the loop-header phis are therefore evaluated tc+1 times and carry
/// values X(0) .. X(tc), with X(tc) being the value on the final (partial or
/// exiting) visit.  With several exits only a maximum trip count is derived.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_TRIPCOUNT_H
#define BEYONDIV_IVCLASS_TRIPCOUNT_H

#include "analysis/LoopInfo.h"
#include "ivclass/Classification.h"
#include <functional>
#include <optional>

namespace biv {
namespace ivclass {

/// Result of trip-count analysis for one loop.
struct TripCountInfo {
  enum class Kind {
    Unknown,  ///< Could not be determined.
    Zero,     ///< The loop body never re-executes (tc = 0).
    Finite,   ///< Count holds the (possibly symbolic) trip count.
    Infinite, ///< The analyzed exit never fires.
  };

  Kind K = Kind::Unknown;

  /// Valid when K == Finite.  May be symbolic (affine over values defined
  /// outside the loop).
  Affine Count;

  /// True when a symbolic Count is only valid under the assumption that it
  /// is positive (otherwise the real count is zero).  Numeric counts are
  /// never guarded.
  bool Guarded = false;

  /// Upper bound when K == Unknown but some exit was countable (the paper's
  /// "maximum trip count" for multi-exit loops).
  std::optional<Affine> MaxCount;

  /// The controlling exit branch and its block, when a single exit decided
  /// the count.
  const ir::Instruction *ExitBranch = nullptr;
  const ir::BasicBlock *ExitingBlock = nullptr;

  bool isCountable() const { return K == Kind::Finite || K == Kind::Zero; }

  /// The trip count as an affine (0 for Zero); requires isCountable().
  Affine count() const {
    assert(isCountable() && "count() on non-countable loop");
    return K == Kind::Zero ? Affine(0) : Count;
  }

  /// Appends the count, e.g. "n (if positive, else 0)" or "unknown (max 9)".
  void append(std::string &Out,
              const SymbolNamer &Namer = SymbolNamer()) const;
  /// The rendering of append as a string of its own.
  std::string str(const SymbolNamer &Namer = SymbolNamer()) const;
};

/// Classifies a value relative to the loop under analysis.
using ClassifyFn = std::function<Classification(const ir::Value *)>;

/// Computes the trip count of \p L.  \p Classify must return classifications
/// relative to \p L (the induction analysis provides it).
TripCountInfo computeTripCount(const analysis::Loop &L,
                               const ClassifyFn &Classify);

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_TRIPCOUNT_H
