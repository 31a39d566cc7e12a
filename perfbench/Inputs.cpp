//===- perfbench/Inputs.cpp - Seeded, deduplicated workload inputs --------===//

#include "Inputs.h"
#include "../bench/WorkloadGen.h"
#include "cache/AnalysisCache.h"
#include "ir/Printer.h"
#include "ivclass/Pipeline.h"
#include <stdexcept>

using namespace biv;
using namespace perfbench;

namespace {

std::string num(int64_t V) { return std::to_string(V); }

/// A nest of countable loops whose innermost body bumps a multiloop IV, as
/// bench::genNest, but with a trip count drawn per level and a drawn step:
/// genNest varies only the depth, which gives 4 distinct programs.
std::string genVariedNest(Lcg &R) {
  unsigned Depth = unsigned(R.range(2, 5));
  std::string Src = "func nest(n) {\n  k = 0;\n";
  std::string Pad = "  ";
  for (unsigned D = 0; D < Depth; ++D) {
    Src += Pad + "for L" + num(D + 1) + ": i" + num(D + 1) + " = 1 to " +
           num(R.range(2, 6)) + " {\n";
    Pad += "  ";
  }
  Src += Pad + "k = k + " + num(R.range(1, 5)) + ";\n";
  Src += Pad + "A[k] = k;\n";
  for (unsigned D = 0; D < Depth; ++D) {
    Pad.resize(Pad.size() - 2);
    Src += Pad + "}\n";
  }
  Src += "  return k;\n}\n";
  return Src;
}

/// bench::genDependenceBattery with a drawn trip count in place of its fixed
/// 100.  Its seed only picks the first pair's distances, about 60 distinct
/// batteries over 4-12 pairs; the count stays below the out-of-bounds pair's
/// offset of 500, so that pair stays independent.
std::string genVariedBattery(Lcg &R) {
  std::string Src =
      bench::genDependenceBattery(unsigned(R.range(4, 12)), R.next());
  const std::string Loop = "i = 1 to 100 {";
  size_t At = Src.find(Loop);
  if (At == std::string::npos)
    throw std::runtime_error("bench::genDependenceBattery changed its loop");
  Src.replace(At, Loop.size(), "i = 1 to " + num(R.range(50, 400)) + " {");
  return Src;
}

/// A loop whose variable squares itself every trip.  No class the analysis
/// knows fits it, so it gives up on the variable under every option set.
std::string genSquaring(Lcg &R) {
  return "func square(n) {\n  x = " + num(R.range(0, 99)) +
         ";\n  for L1: i = 1 to n {\n    x = x * x + " + num(R.range(1, 99)) +
         ";\n    A[i] = x;\n  }\n  return x;\n}\n";
}

/// One function of shape \p Index mod 4 (mod 5 with \p Squaring), drawn
/// with bench::genCorpus's sizes.  Cycling the shapes keeps every corpus's
/// shape mix the same, so seeds vary sizes and constants but not the
/// proportion of work each layer sees.
std::string genShapeUnit(Lcg &R, size_t Index, bool Squaring) {
  switch (Index % (Squaring ? 5 : 4)) {
  case 0:
    return bench::genLinearChain(unsigned(R.range(16, 64)), R.next());
  case 1:
    return bench::genMixedClasses(unsigned(R.range(2, 6)), R.next());
  case 2:
    return genVariedNest(R);
  case 3:
    return genVariedBattery(R);
  default:
    return genSquaring(R);
  }
}

/// Canonical-IR digest of \p Source under \p OptsBits (0 when it does not
/// parse).
uint64_t sourceDigest(const std::string &Source, uint64_t OptsBits) {
  std::vector<std::string> Errors;
  std::optional<ivclass::AnalyzedProgram> P =
      ivclass::parseSource(Source, Errors);
  return P ? cache::unitDigest(ir::toString(*P->F), OptsBits) : 0;
}

} // namespace

void UniqueCorpus::add(const std::string &Name, const std::string &Source) {
  uint64_t D = sourceDigest(Source, Bits);
  if (D == 0)
    throw std::runtime_error("generated input does not parse: " + Name);
  if (Seen.insert(D).second)
    Units.push_back({Name, Source});
  else
    ++Dups;
}

void perfbench::fillShapes(UniqueCorpus &C, Lcg &R, size_t Count,
                           const std::string &Prefix, bool Squaring) {
  // Bounded: the shape space holds far more distinct units than any
  // workload asks for, so running dry means the generator broke.
  for (size_t Tries = 0; C.Units.size() < Count; ++Tries) {
    if (Tries > 20 * Count + 1000)
      throw std::runtime_error("shape generator ran out of distinct units");
    C.add(Prefix + std::to_string(C.Units.size()),
          genShapeUnit(R, C.Units.size(), Squaring));
  }
}
