//===- bench/WorkloadGen.h - Synthetic program generator --------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generators of loop-language programs: derived-IV chains
/// (linearity), mixed-class loops (coverage), deep nests (multiloop IVs),
/// and array-reference batteries (dependence precision).  The tier-1 tests
/// pin the paper's claim counts on them, and perfbench's batch workload
/// draws its corpus from genCorpus.  All generation is seeded and
/// reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_BENCH_WORKLOADGEN_H
#define BEYONDIV_BENCH_WORKLOADGEN_H

#include "support/Lcg.h"
#include <cstdint>
#include <string>
#include <vector>

namespace biv {
namespace bench {

/// One loop with a chain of \p N derived linear statements
/// (v_k = v_{k-1} + c or v_k = a*i + b), ending in array stores so nothing
/// is trivially dead.
inline std::string genLinearChain(unsigned N, uint64_t Seed = 1) {
  Lcg R(Seed);
  std::string Src = "func chain(n) {\n";
  for (unsigned K = 0; K < N; ++K)
    Src += "  v" + std::to_string(K) + " = 0;\n";
  Src += "  for L1: i = 1 to n {\n";
  for (unsigned K = 0; K < N; ++K) {
    std::string V = "v" + std::to_string(K);
    if (K == 0 || R.range(0, 2) == 0)
      Src += "    " + V + " = " + std::to_string(R.range(1, 9)) + "*i + " +
             std::to_string(R.range(0, 99)) + ";\n";
    else
      Src += "    " + V + " = v" + std::to_string(R.range(0, K - 1)) +
             " + " + std::to_string(R.range(1, 5)) + ";\n";
  }
  Src += "    A[v" + std::to_string(N - 1) + "] = i;\n";
  Src += "  }\n  return v0;\n}\n";
  return Src;
}

/// One loop mixing every class the paper handles, \p Groups times over:
/// linear, polynomial, geometric, wrap-around, periodic-3, and monotonic.
inline std::string genMixedClasses(unsigned Groups, uint64_t Seed = 2) {
  Lcg R(Seed);
  std::string Init, Body;
  for (unsigned G = 0; G < Groups; ++G) {
    std::string S = std::to_string(G);
    Init += "  lin" + S + " = 0; pol" + S + " = 1; geo" + S + " = 1;" +
            " wrp" + S + " = 9;" + " p" + S + " = 1; q" + S + " = 2; r" +
            S + " = 3; t" + S + " = 0; mon" + S + " = 0;\n";
    Body += "    lin" + S + " = lin" + S + " + " +
            std::to_string(R.range(1, 7)) + ";\n";
    Body += "    pol" + S + " = pol" + S + " + i;\n";
    Body += "    geo" + S + " = geo" + S + " * 2 + 1;\n";
    Body += "    wrp" + S + " = i;\n";
    Body += "    t" + S + " = p" + S + "; p" + S + " = q" + S + "; q" + S +
            " = r" + S + "; r" + S + " = t" + S + ";\n";
    Body += "    if (A[i] > " + std::to_string(R.range(0, 5)) + ") { mon" +
            S + " = mon" + S + " + 1; }\n";
  }
  return "func mixed(n) {\n" + Init + "  for L1: i = 1 to n {\n" + Body +
         "    B[lin0] = i;\n  }\n  return mon0;\n}\n";
}

/// A nest of \p Depth countable loops, each body updating a multiloop IV.
inline std::string genNest(unsigned Depth, unsigned TripEach = 4) {
  std::string Src = "func nest(n) {\n  k = 0;\n";
  std::string Pad = "  ";
  for (unsigned D = 0; D < Depth; ++D) {
    Src += Pad + "for L" + std::to_string(D + 1) + ": i" +
           std::to_string(D + 1) + " = 1 to " + std::to_string(TripEach) +
           " {\n";
    Pad += "  ";
  }
  Src += Pad + "k = k + 1;\n";
  Src += Pad + "A[k] = k;\n";
  for (unsigned D = 0; D < Depth; ++D) {
    Pad.resize(Pad.size() - 2);
    Src += Pad + "}\n";
  }
  Src += "  return k;\n}\n";
  return Src;
}

/// One loop with \p Pairs write/read reference pairs cycling through the
/// dependence-test situations: strong SIV hits and misses, GCD-separable
/// strides, weak-zero, wrap-around, periodic, and monotonic subscripts.
inline std::string genDependenceBattery(unsigned Pairs, uint64_t Seed = 3) {
  Lcg R(Seed);
  std::string Init = "  w = 99; p = 1; q = 2; t = 0; m = 0;\n";
  std::string Body;
  for (unsigned K = 0; K < Pairs; ++K) {
    std::string A = "A" + std::to_string(K);
    switch (K % 6) {
    case 0: // strong SIV, small distance: dependent
      Body += "    " + A + "[i] = " + A + "[i - " +
              std::to_string(R.range(1, 3)) + "] + 1;\n";
      break;
    case 1: // distinct strides: GCD-independent
      Body += "    " + A + "[2*i] = " + A + "[2*i + 1] + 1;\n";
      break;
    case 2: // beyond bounds: independent with known trip counts
      Body += "    " + A + "[i] = " + A + "[i + 500] + 1;\n";
      break;
    case 3: // wrap-around read
      Body += "    " + A + "[i] = " + A + "[w] + 1;\n";
      break;
    case 4: // periodic planes
      Body += "    " + A + "[p] = " + A + "[q] + 1;\n";
      break;
    case 5: // monotonic pack
      Body += "    if (" + A + "[i] > 0) { m = m + 1; " + A +
              "[m + 200] = i; }\n";
      break;
    }
  }
  return "func battery(n) {\n" + Init +
         "  for L1: i = 1 to 100 {\n" + Body +
         "    w = i;\n    t = p; p = q; q = t;\n  }\n  return m;\n}\n";
}

/// A seeded corpus of \p Functions independent functions cycling through the
/// generator shapes above -- the batch driver's workload.  Names are unique
/// so a merged report attributes every unit.
struct CorpusUnit {
  std::string Name;
  std::string Text;
};

inline std::vector<CorpusUnit> genCorpus(unsigned Functions,
                                         uint64_t Seed = 7) {
  Lcg R(Seed);
  std::vector<CorpusUnit> Corpus;
  Corpus.reserve(Functions);
  for (unsigned I = 0; I < Functions; ++I) {
    std::string Name = "u" + std::to_string(I);
    switch (I % 4) {
    case 0:
      Corpus.push_back({Name + "_chain",
                        genLinearChain(unsigned(R.range(16, 64)), R.next())});
      break;
    case 1:
      Corpus.push_back({Name + "_mixed",
                        genMixedClasses(unsigned(R.range(2, 6)), R.next())});
      break;
    case 2:
      Corpus.push_back({Name + "_nest",
                        genNest(unsigned(R.range(2, 5)))});
      break;
    default:
      Corpus.push_back({Name + "_deps",
                        genDependenceBattery(unsigned(R.range(4, 12)),
                                             R.next())});
      break;
    }
  }
  return Corpus;
}

} // namespace bench
} // namespace biv

#endif // BEYONDIV_BENCH_WORKLOADGEN_H
