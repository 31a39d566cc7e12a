//===- dependence/DependenceAnalyzer.h - Whole-function driver --*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-function data dependence analysis over classified subscripts.
///
/// For every pair of references to the same array with at least one write,
/// subscripts are classified (section 6) and dispatched:
///  - linear induction expressions go to the classical ZIV/SIV/MIV tests;
///  - wrap-around subscripts are linearized through the class they settle
///    into (classifySubscript), tested the same way, and the dependence is
///    flagged as "holds after k iterations", k the settle order, so the
///    client can decide whether peeling pays off;
///  - same-family periodic subscripts translate `=` solutions to a modular
///    distance constraint (a `!=` direction when the phases differ -- the
///    paper's relaxation-code result);
///  - same-family monotonic subscripts translate `=` solutions to `(=)`
///    when strictly monotonic and `(<=)` otherwise (Figure 10).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_DEPENDENCE_DEPENDENCEANALYZER_H
#define BEYONDIV_DEPENDENCE_DEPENDENCEANALYZER_H

#include "dependence/DependenceTests.h"
#include <vector>

namespace biv {
namespace dependence {

/// Flow: write then read; Anti: read then write; Output: write then write.
enum class DepKind { Flow, Anti, Output };

const char *depKindName(DepKind K);

/// One (possible) dependence between two array references, from the
/// textually earlier Src to the later Dst.
struct Dependence {
  const ir::Instruction *Src = nullptr;
  const ir::Instruction *Dst = nullptr;
  DepKind Kind = DepKind::Flow;
  DependenceResult Result;
};

/// Statistics for the precision benchmarks.
struct DependenceStats {
  unsigned PairsTested = 0;
  unsigned Independent = 0;
  unsigned ExactDistance = 0;     ///< Some loop carries an exact distance.
  unsigned DirectionRefined = 0;  ///< Some loop excludes a direction.
  unsigned AssumedDependences = 0;
};

/// Runs the dependence tests over one analyzed function.
class DependenceAnalyzer {
public:
  struct Options {
    /// Apply the paper's wrap-around/periodic/monotonic translations; when
    /// off, such subscript pairs are simply assumed dependent with all
    /// directions (the classical-analysis behaviour, for the ablation
    /// benchmarks).
    bool UseExtendedClasses = true;
  };

  explicit DependenceAnalyzer(ivclass::InductionAnalysis &IA);
  DependenceAnalyzer(ivclass::InductionAnalysis &IA, Options Opts);

  /// Tests every array reference pair; results include proven-independent
  /// pairs so clients can count precision.
  std::vector<Dependence> analyze();

  const DependenceStats &stats() const { return Stats; }

  /// Human-readable report of analyze()'s results.
  std::string report(const std::vector<Dependence> &Deps) const;

private:
  struct Reference {
    ir::Instruction *I;
    bool IsWrite;
    const analysis::Loop *InnermostLoop; // null outside all loops
  };

  DependenceResult testPair(const Reference &Src, const Reference &Dst);
  DependenceResult testDimension(const ir::Value *SrcSub,
                                 const ir::Value *DstSub,
                                 const Reference &Src, const Reference &Dst,
                                 const std::vector<LoopBound> &Common,
                                 const std::vector<LoopBound> &NonCommon);

  /// Loop bound from the trip count: counters run 0 .. tc (inclusive upper
  /// bound is conservative and sound).
  LoopBound boundFor(const analysis::Loop *L) const;

  ivclass::InductionAnalysis &IA;
  Options Opts;
  DependenceStats Stats;
};

} // namespace dependence
} // namespace biv

#endif // BEYONDIV_DEPENDENCE_DEPENDENCEANALYZER_H
