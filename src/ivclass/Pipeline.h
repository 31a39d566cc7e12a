//===- ivclass/Pipeline.h - Source-to-analysis facade -----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call entry point used by examples, benchmarks, and downstream
/// clients: parse a loop-language program, build SSA, optionally run
/// constant propagation, and run the induction-variable analysis.  The
/// returned bundle keeps every intermediate structure alive (the analysis
/// holds references into them).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_PIPELINE_H
#define BEYONDIV_IVCLASS_PIPELINE_H

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ivclass/InductionAnalysis.h"
#include "ssa/SSABuilder.h"
#include <memory>
#include <string>
#include <vector>

namespace biv {
namespace ivclass {

/// Everything produced by analyzing one program.
struct AnalyzedProgram {
  std::unique_ptr<ir::Function> F;
  ssa::SSAInfo Info;
  std::unique_ptr<analysis::DominatorTree> DT;
  std::unique_ptr<analysis::LoopInfo> LI;
  std::unique_ptr<InductionAnalysis> IA;
};

/// Pipeline switches.
struct PipelineOptions {
  /// Run Wegman-Zadeck constant propagation (fold-only) before the IV
  /// analysis, as the paper suggests for resolving initial values.
  bool RunSCCP = true;
  /// Re-verify SSA after each mutating stage (post-SCCP).  On by default so
  /// tests catch pass bugs at the stage that introduced them; benches and
  /// the batch driver turn it off -- the initial post-construction verify
  /// always runs.
  bool VerifyEach = true;
  InductionAnalysis::Options Analysis;
};

/// Frontend half of analyzeSource: parse, lower, build SSA (and verify it).
/// Fills only F and Info; DT/LI/IA stay null until analyzeParsed() runs.
/// Split out so the batch driver can hash the canonical IR print and probe
/// the analysis cache before paying for the analysis half.
std::optional<AnalyzedProgram> parseSource(const std::string &Source,
                                           std::vector<std::string> &Errors);

/// Analysis half: optional constant propagation, dominators, loops, and the
/// induction-variable analysis, in place on a parseSource() result.
void analyzeParsed(AnalyzedProgram &P,
                   const PipelineOptions &Opts = PipelineOptions());

/// Parses and analyzes \p Source (parseSource + analyzeParsed).  On error
/// returns an empty optional and fills \p Errors.
std::optional<AnalyzedProgram>
analyzeSource(const std::string &Source, std::vector<std::string> &Errors,
              const PipelineOptions &Opts = PipelineOptions());

/// Like analyzeSource but aborts with diagnostics (for known-good inputs).
AnalyzedProgram analyzeSourceOrDie(const std::string &Source,
                                   const PipelineOptions &Opts =
                                       PipelineOptions());

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_PIPELINE_H
