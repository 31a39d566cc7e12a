//===- tests/baseline_test.cpp - Classical baseline and coverage gap ----------===//
//
// Checks the classical/ad-hoc baseline itself, and the paper's two claims
// (DESIGN.md §4, B1 and B2): the unified algorithm visits each instruction
// of a loop in one region, and it classifies strictly more than classical
// + ad hoc.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "WorkloadGen.h"
#include "baseline/ClassicalIV.h"
#include "baseline/PatternMatchers.h"
#include "ivclass/Report.h"

using namespace biv;
using namespace biv::testutil;
using namespace biv::baseline;

TEST(BaselineTest, FindsBasicIV) {
  Analyzed A = analyze("func f(n) {"
                       "  s = 0;"
                       "  for L: i = 1 to n { s = s + i; }"
                       "  return s;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L"));
  EXPECT_EQ(R.BasicIVs, 1u); // i; s is not a classical IV (step varies)
  EXPECT_TRUE(R.isIV(A.phi("L", "i")));
  EXPECT_FALSE(R.isIV(A.phi("L", "s")));
}

TEST(BaselineTest, FindsDerivedIVsIteratively) {
  Analyzed A = analyze("func f(n, c) {"
                       "  for L: i = 1 to n {"
                       "    A[2*i + 1] = i;"
                       "    A[c - i] = i;"
                       "  }"
                       "  return 0;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L"));
  EXPECT_EQ(R.BasicIVs, 1u);
  EXPECT_GE(R.DerivedIVs, 3u); // 2*i, 2*i+1, c-i
  EXPECT_GE(R.Passes, 2u) << "fixed-point detection needs >= 2 sweeps";
}

TEST(BaselineTest, MutualIVsNeedIteration) {
  // The L2 mutual pattern: i = j+c; j = i+k.  One basic variable (the
  // cycle), derived values found across sweeps.
  Analyzed A = analyze("func l2(n, c, k) {"
                       "  j = n; i = 0;"
                       "  loop L2 {"
                       "    i = j + c;"
                       "    j = i + k;"
                       "    if (i > 100) break;"
                       "  }"
                       "  return j;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L2"));
  EXPECT_TRUE(R.isIV(A.phi("L2", "j")));
}

TEST(BaselineTest, ConditionalEqualIncrementsAreBasic) {
  // Figure 3: same increment on both branches still a basic IV.
  Analyzed A = analyze("func l8(x, n) {"
                       "  i = 1;"
                       "  loop L8 {"
                       "    if (x > 0) { i = i + 2; } else { i = i + 2; }"
                       "    if (i > n) break;"
                       "  }"
                       "  return i;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L8"));
  EXPECT_TRUE(R.isIV(A.phi("L8", "i")));
}

TEST(BaselineTest, AdHocWrapAround) {
  Analyzed A = analyze("func l9(n) {"
                       "  iml = n;"
                       "  for L9: i = 1 to n {"
                       "    A[i] = A[iml] + 1;"
                       "    iml = i;"
                       "  }"
                       "  return 0;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L9"));
  AdHocResult AH = runAdHocMatchers(*A.loop("L9"), R);
  EXPECT_EQ(AH.WrapArounds, 1u);
}

TEST(BaselineTest, AdHocFlipFlop) {
  Analyzed A = analyze("func l12(n) {"
                       "  j = 1;"
                       "  for L12: iter = 1 to n { j = 3 - j; }"
                       "  return j;"
                       "}");
  ClassicalResult R = runClassicalIV(*A.loop("L12"));
  AdHocResult AH = runAdHocMatchers(*A.loop("L12"), R);
  EXPECT_EQ(AH.FlipFlops, 1u);
}

TEST(BaselineTest, CoverageGapVersusUnified) {
  // One loop containing every class: the classical baseline plus ad hoc
  // matchers must miss the polynomial, geometric, periodic-3, monotonic and
  // second-order wrap-around variables that the unified algorithm gets.
  Analyzed A = analyze("func gap(n) {"
                       "  j = 1; k = 1; l = 1; m = 0; w = 9; w2 = 9;"
                       "  p = 1; q = 2; r = 3; t = 0; cnt = 0;"
                       "  for L: i = 1 to n {"
                       "    j = j + i;"           // polynomial
                       "    l = l * 2 + 1;"       // geometric
                       "    w2 = w;"              // wrap-around order 2
                       "    w = i;"               // wrap-around order 1
                       "    t = p; p = q; q = r; r = t;" // periodic 3
                       "    if (A[i] > 0) { cnt = cnt + 1; }" // monotonic
                       "    k = 3 * i + 7;"       // derived linear (both find)
                       "  }"
                       "  return cnt;"
                       "}");
  analysis::Loop *L = A.loop("L");
  ClassicalResult CR = runClassicalIV(*L);
  AdHocResult AH = runAdHocMatchers(*L, CR);

  // Classical: only i (basic) and the derived linear expressions.
  EXPECT_FALSE(CR.isIV(A.phi("L", "j")));
  EXPECT_FALSE(CR.isIV(A.phi("L", "l")));
  EXPECT_FALSE(CR.isIV(A.phi("L", "p")));
  EXPECT_FALSE(CR.isIV(A.phi("L", "cnt")));
  EXPECT_TRUE(CR.isIV(A.phi("L", "i")));

  // Ad hoc: finds first-order wrap-arounds only (w, and k's header phi
  // which wraps the derived IV 3i+7) -- but not the second-order w2.
  EXPECT_EQ(AH.WrapArounds, 2u);

  // Unified: classifies all of them.
  using ivclass::IVKind;
  EXPECT_EQ(A.cls("L", "j").Kind, IVKind::Polynomial);
  EXPECT_EQ(A.cls("L", "l").Kind, IVKind::Geometric);
  EXPECT_EQ(A.cls("L", "p").Kind, IVKind::Periodic);
  EXPECT_EQ(A.cls("L", "cnt").Kind, IVKind::Monotonic);
  EXPECT_EQ(A.cls("L", "w").Kind, IVKind::WrapAround);
  const ivclass::Classification &W2 = A.cls("L", "w2");
  ASSERT_EQ(W2.Kind, IVKind::WrapAround);
  EXPECT_EQ(W2.WrapOrder, 2u);
}

TEST(BaselineTest, AgreementOnLinearIVs) {
  // Property: everything classical calls an IV, the unified analysis must
  // classify as linear (they agree on the classical domain).
  const char *Programs[] = {
      "func a(n) { for L: i = 1 to n { A[3*i - 2] = i; } return 0; }",
      "func b(n, c) { j = c; loop L { j = j + 4; if (j > n) break; }"
      " return j; }",
      "func c(n) { s = 0; for L: i = 2 to n by 3 { s = s + 2; } return s; }",
  };
  for (const char *Src : Programs) {
    Analyzed A = analyze(Src);
    analysis::Loop *L = A.loop("L");
    ClassicalResult CR = runClassicalIV(*L);
    EXPECT_GT(CR.BasicIVs + CR.DerivedIVs, 0u) << Src;
    for (const auto &[V, IV] : CR.IVs) {
      (void)IV;
      const ivclass::Classification &C = A.IA->classify(V, L);
      EXPECT_TRUE(C.isLinear() || C.isInvariant())
          << Src << ": classical IV not linear under unified analysis";
    }
  }
}

//===----------------------------------------------------------------------===//
// Claims B1 and B2 on the generated workloads
//===----------------------------------------------------------------------===//

TEST(BaselineTest, ClaimB1OneRegionPerChainInstruction) {
  // "Linear in the size of the SSA graph, not iterative": on a derived-IV
  // chain every loop instruction is visited in exactly one strongly
  // connected region.  Only the entry branch and the return lie outside
  // the loop, and i with its increment is the one two-member region, so
  // the region count is the instruction count minus 3 at every size.  The
  // classical baseline takes two sweeps at every size: the chain is defined
  // in program order, so one sweep discovers it and a second confirms the
  // fixed point.  Time per instruction is perfbench's
  // ivclass.classify_self_ns_per_instr.
  ivclass::InductionAnalysis::Options Opts;
  Opts.MaterializeExitValues = false;
  const struct {
    unsigned Stmts;
    size_t Instrs;
  } Sizes[] = {{64, 158}, {512, 1205}, {4096, 9579}};
  for (const auto &[Stmts, Instrs] : Sizes) {
    Analyzed A = analyze(bench::genLinearChain(Stmts), /*RunSCCP=*/false,
                         Opts);
    EXPECT_EQ(A.F->instructionCount(), Instrs) << Stmts;
    EXPECT_EQ(A.IA->stats().Regions, Instrs - 3) << Stmts;
    EXPECT_EQ(runClassicalIV(*A.loop("L1")).Passes, 2u) << Stmts;
  }
}

TEST(BaselineTest, ClaimB2CoverageOnMixedWorkload) {
  // 16 groups of linear, polynomial, geometric, wrap-around, periodic-3
  // and monotonic variables in one loop: classical + ad hoc classify the
  // linear IVs and the first-order wrap-arounds, the unified pass all 145.
  ivclass::InductionAnalysis::Options Opts;
  Opts.MaterializeExitValues = false;
  Analyzed A = analyze(bench::genMixedClasses(16), /*RunSCCP=*/false, Opts);
  unsigned HeaderPhis = 0, ClassicalIVs = 0, AdHocWraps = 0, AdHocFlips = 0;
  for (const auto &L : A.LI->loops()) {
    ClassicalResult CR = runClassicalIV(*L);
    AdHocResult AH = runAdHocMatchers(*L, CR);
    for (ir::Instruction *Phi : L->header()->phis()) {
      ++HeaderPhis;
      ClassicalIVs += CR.isIV(Phi);
    }
    AdHocWraps += AH.WrapArounds;
    AdHocFlips += AH.FlipFlops;
  }
  EXPECT_EQ(HeaderPhis, 145u);
  EXPECT_EQ(ClassicalIVs, 17u);
  EXPECT_EQ(AdHocWraps, 16u);
  EXPECT_EQ(AdHocFlips, 0u) << "the swap form is not matched";

  ivclass::KindCounts KC = ivclass::countHeaderPhiKinds(*A.IA);
  EXPECT_EQ(KC.classified(), 145u);
  EXPECT_EQ(KC.Linear, 17u);
  EXPECT_EQ(KC.Polynomial, 16u);
  EXPECT_EQ(KC.Geometric, 16u);
  EXPECT_EQ(KC.WrapAround, 32u);
  EXPECT_EQ(KC.Periodic, 48u);
  EXPECT_EQ(KC.Monotonic, 16u);
}
