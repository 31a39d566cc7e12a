//===- tests/TestUtil.h - Shared test pipeline helpers ----------*- C++ -*-===//
//
// Builds source text through the full pipeline (parse -> lower -> SSA ->
// induction analysis) and exposes the paper-style queries the figure tests
// need, plus interpreter-oracle helpers.
//
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_TESTS_TESTUTIL_H
#define BEYONDIV_TESTS_TESTUTIL_H

#include "frontend/Lowering.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ivclass/Pipeline.h"
#include "ssa/SCCP.h"
#include "ssa/SSAVerifier.h"
#include <gtest/gtest.h>
#include <memory>
#include <string>

namespace biv {
namespace testutil {

/// A program pushed through the whole pipeline.
struct Analyzed : ivclass::AnalyzedProgram {
  analysis::Loop *loop(const std::string &Name) const {
    analysis::Loop *L = LI->byName(Name);
    EXPECT_NE(L, nullptr) << "no loop named " << Name;
    return L;
  }

  /// Loop-header phi of source variable \p Var in loop \p LoopName.
  ir::Instruction *phi(const std::string &LoopName,
                       const std::string &Var) const {
    analysis::Loop *L = LI->byName(LoopName);
    if (!L)
      return nullptr;
    return Info.phiFor(L->header(), Var);
  }

  /// The in-loop (carried) operand of \p Var 's header phi: the instruction
  /// computing the variable's next value -- the paper usually quotes the
  /// tuple of this value (e.g. i3/j3 in Figure 1).
  ir::Instruction *carried(const std::string &LoopName,
                           const std::string &Var) const {
    ir::Instruction *P = phi(LoopName, Var);
    analysis::Loop *L = LI->byName(LoopName);
    if (!P || !L)
      return nullptr;
    for (unsigned I = 0; I < P->numOperands(); ++I)
      if (L->contains(P->blocks()[I]))
        return ir::dyn_cast<ir::Instruction>(P->operand(I));
    return nullptr;
  }

  /// Classification of an arbitrary value relative to a loop.
  const ivclass::Classification &clsOf(const ir::Value *V,
                                       const std::string &LoopName) const {
    return IA->classify(V, LI->byName(LoopName));
  }

  /// Classification of variable \p Var 's header phi relative to its loop.
  const ivclass::Classification &cls(const std::string &LoopName,
                                     const std::string &Var) const {
    static ivclass::Classification Unknown;
    ir::Instruction *P = phi(LoopName, Var);
    if (!P)
      return Unknown;
    return IA->classify(P, LI->byName(LoopName));
  }

  /// Paper-style nested-tuple rendering of a variable's classification.
  std::string tuple(const std::string &LoopName,
                    const std::string &Var) const {
    ir::Instruction *P = phi(LoopName, Var);
    if (!P)
      return "<no phi>";
    return IA->strNested(IA->classify(P, LI->byName(LoopName)));
  }
};

/// Parses, lowers, and converts \p Src to verified SSA -- the shared
/// front half of the pipeline for tests that do not need the induction
/// analysis (pipeline, interpreter, and frontend tests).
inline std::unique_ptr<ir::Function> makeSSA(const std::string &Src,
                                             ssa::SSAInfo *InfoOut = nullptr) {
  auto F = frontend::parseAndLowerOrDie(Src);
  ssa::SSAInfo Info = ssa::buildSSA(*F);
  ssa::verifySSAOrDie(*F);
  if (InfoOut)
    *InfoOut = std::move(Info);
  return F;
}

/// Runs the full pipeline.  \p RunSCCP folds constants first (the paper's
/// [WZ91] step); figure tests usually keep it on.
inline Analyzed analyze(const std::string &Src, bool RunSCCP = false,
                        ivclass::InductionAnalysis::Options Opts = {}) {
  ivclass::PipelineOptions PO;
  PO.RunSCCP = RunSCCP;
  PO.Analysis = Opts;
  Analyzed A;
  static_cast<ivclass::AnalyzedProgram &>(A) =
      ivclass::analyzeSourceOrDie(Src, PO);
  return A;
}

/// Evaluates \p V with every symbol bound through \p Syms (symbols are IR
/// values: arguments or instructions).  Fails the test on unbound symbols.
inline int64_t evalAffine(const Affine &V,
                          const std::map<const ir::Value *, int64_t> &Syms) {
  Rational R = V.constantPart();
  for (const auto &[Sym, Coeff] : V.terms()) {
    auto It = Syms.find(static_cast<const ir::Value *>(Sym));
    EXPECT_TRUE(It != Syms.end()) << "unbound symbol in affine";
    if (It == Syms.end())
      return 0;
    R += Coeff * Rational(It->second);
  }
  EXPECT_TRUE(R.isInteger()) << "affine evaluated to non-integer";
  return R.isInteger() ? R.getInteger() : 0;
}

/// Oracle check: the closed form of \p C must reproduce the observed value
/// sequence of \p I from \p Trace (every iteration).
inline void expectFormMatchesTrace(
    const ivclass::Classification &C, const ir::Instruction *I,
    const interp::ExecutionTrace &Trace,
    const std::map<const ir::Value *, int64_t> &Syms = {}) {
  ASSERT_TRUE(C.hasClosedForm()) << "classification has no closed form";
  const std::vector<int64_t> &Seq = Trace.sequenceOf(I);
  ASSERT_FALSE(Seq.empty()) << "instruction never executed";
  for (size_t H = 0; H < Seq.size(); ++H) {
    int64_t Expected = evalAffine(C.Form.evaluateAt(H), Syms);
    EXPECT_EQ(Expected, Seq[H])
        << "closed form diverges from execution at iteration " << H;
  }
}

/// Oracle check for monotonic classifications.
inline void expectMonotoneTrace(const ivclass::Classification &C,
                                const ir::Instruction *I,
                                const interp::ExecutionTrace &Trace) {
  ASSERT_TRUE(C.isMonotonic());
  const std::vector<int64_t> &Seq = Trace.sequenceOf(I);
  ASSERT_GE(Seq.size(), 2u) << "need at least two observations";
  // Monotone claims hold over Z; once the machine run wraps int64 the
  // observed sequence no longer witnesses the mathematical one, so the
  // claim is unfalsifiable by this execution.  Same bound and rationale
  // as the fuzz oracle's ClaimValueBound.
  constexpr int64_t ClaimValueBound = int64_t(1) << 31;
  for (int64_t V : Seq)
    if (V > ClaimValueBound || V < -ClaimValueBound)
      return;
  for (size_t K = 1; K < Seq.size(); ++K) {
    if (C.Dir == ivclass::MonotoneDir::Increasing) {
      if (C.Strict)
        EXPECT_LT(Seq[K - 1], Seq[K]);
      else
        EXPECT_LE(Seq[K - 1], Seq[K]);
    } else {
      if (C.Strict)
        EXPECT_GT(Seq[K - 1], Seq[K]);
      else
        EXPECT_GE(Seq[K - 1], Seq[K]);
    }
  }
}

} // namespace testutil
} // namespace biv

#endif // BEYONDIV_TESTS_TESTUTIL_H
