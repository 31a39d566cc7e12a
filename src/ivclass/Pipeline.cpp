//===- ivclass/Pipeline.cpp - Source-to-analysis facade -------------------------===//

#include "ivclass/Pipeline.h"
#include "frontend/Lowering.h"
#include "ssa/SCCP.h"
#include "ssa/SSAVerifier.h"
#include <cstdio>
#include <cstdlib>

using namespace biv;
using namespace biv::ivclass;

std::optional<AnalyzedProgram>
biv::ivclass::parseSource(const std::string &Source,
                          std::vector<std::string> &Errors) {
  AnalyzedProgram P;
  P.F = frontend::parseAndLower(Source, Errors);
  if (!P.F)
    return std::nullopt;
  P.Info = ssa::buildSSA(*P.F);
  ssa::verifySSAOrDie(*P.F);
  return P;
}

void biv::ivclass::analyzeParsed(AnalyzedProgram &P,
                                 const PipelineOptions &Opts) {
  if (Opts.RunSCCP) {
    // Fold-only: branch pruning could delete the loops under analysis.
    ssa::runSCCP(*P.F, /*SimplifyCFG=*/false);
    if (Opts.VerifyEach)
      ssa::verifySSAOrDie(*P.F);
  }
  P.DT = std::make_unique<analysis::DominatorTree>(*P.F);
  P.LI = std::make_unique<analysis::LoopInfo>(*P.F, *P.DT);
  P.IA = std::make_unique<InductionAnalysis>(*P.F, *P.DT, *P.LI,
                                             Opts.Analysis);
  P.IA->run();
}

std::optional<AnalyzedProgram>
biv::ivclass::analyzeSource(const std::string &Source,
                            std::vector<std::string> &Errors,
                            const PipelineOptions &Opts) {
  std::optional<AnalyzedProgram> P = parseSource(Source, Errors);
  if (P)
    analyzeParsed(*P, Opts);
  return P;
}

AnalyzedProgram
biv::ivclass::analyzeSourceOrDie(const std::string &Source,
                                 const PipelineOptions &Opts) {
  std::vector<std::string> Errors;
  std::optional<AnalyzedProgram> P = analyzeSource(Source, Errors, Opts);
  if (P)
    return std::move(*P);
  std::fprintf(stderr, "analyzeSource failed:\n");
  for (const std::string &E : Errors)
    std::fprintf(stderr, "  %s\n", E.c_str());
  std::abort();
}
