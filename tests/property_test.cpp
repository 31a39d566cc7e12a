//===- tests/property_test.cpp - Randomized end-to-end oracles ----------------===//
//
// Generates random loop programs and checks the analyses against real
// executions:
//   O1  every closed-form classification reproduces the observed sequence;
//   O2  monotonic classifications are monotone on the observed sequence;
//   O3  periodic members follow Ring[(phase+h) mod p];
//   O4  numeric trip counts equal observed header visits minus one;
//   O5  exit-value materialization does not change program behaviour;
//   O6  pairs proven independent never touch a common cell at runtime.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dependence/DependenceAnalyzer.h"

using namespace biv;
using namespace biv::testutil;

namespace {

/// Deterministic LCG (independent of library RNGs).
class Lcg {
public:
  explicit Lcg(uint64_t Seed) : S(Seed * 2654435761u + 1) {}
  uint64_t next() {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    return S >> 17;
  }
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % uint64_t(Hi - Lo + 1));
  }
  bool chance(int Percent) { return range(1, 100) <= Percent; }

private:
  uint64_t S;
};

/// Generates a random, always-terminating loop program.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    Src = "func prog(n) {\n";
    for (int V = 0; V < 6; ++V)
      Src += "  v" + std::to_string(V) + " = " +
             std::to_string(R.range(0, 9)) + ";\n";
    Src += "  p0 = 1; p1 = 2; p2 = 3; tmp = 0;\n";
    genLoop(1, 0);
    if (R.chance(50))
      genLoop(1, 1);
    Src += "  return v0;\n}\n";
    return Src;
  }

private:
  void genLoop(unsigned Depth, unsigned Sibling) {
    std::string Pad(2 * Depth, ' ');
    std::string L = "L" + std::to_string(Depth) + std::to_string(Sibling);
    std::string IV = "i" + std::to_string(Depth) + std::to_string(Sibling);
    int64_t Trip = R.range(3, 9);
    Src += Pad + "for " + L + ": " + IV + " = 1 to " +
           std::to_string(Trip) + " {\n";
    unsigned Stmts = R.range(2, 6);
    for (unsigned K = 0; K < Stmts; ++K)
      genStatement(Depth, IV);
    if (Depth < 3 && R.chance(35))
      genLoop(Depth + 1, Sibling);
    Src += Pad + "}\n";
  }

  void genStatement(unsigned Depth, const std::string &IV) {
    std::string Pad(2 * Depth + 2, ' ');
    std::string V = "v" + std::to_string(R.range(0, 5));
    std::string W = "v" + std::to_string(R.range(0, 5));
    switch (R.range(0, 9)) {
    case 0: // linear update
      Src += Pad + V + " = " + V + " + " + std::to_string(R.range(1, 5)) +
             ";\n";
      break;
    case 1: // polynomial update
      Src += Pad + V + " = " + V + " + " + IV + ";\n";
      break;
    case 2: // geometric update (bounded growth: trips <= 9, depth <= 3)
      Src += Pad + V + " = " + V + " * 2 + " +
             std::to_string(R.range(0, 3)) + ";\n";
      break;
    case 3: // flip-flop
      Src += Pad + V + " = " + std::to_string(R.range(1, 6)) + " - " + V +
             ";\n";
      break;
    case 4: // copy (wrap-around chains)
      Src += Pad + V + " = " + W + ";\n";
      break;
    case 5: // rotation
      Src += Pad + "tmp = p0; p0 = p1; p1 = p2; p2 = tmp;\n";
      break;
    case 6: // conditional increment (monotonic)
      Src += Pad + "if (A[" + IV + "] > " + std::to_string(R.range(0, 3)) +
             ") { " + V + " = " + V + " + " +
             std::to_string(R.range(1, 2)) + "; }\n";
      break;
    case 7: // derived store
      Src += Pad + "B[" + std::to_string(R.range(1, 3)) + "*" + IV + " + " +
             std::to_string(R.range(0, 4)) + "] = " + V + ";\n";
      break;
    case 8: // load through an IV
      Src += Pad + V + " = " + V + " + B[" + IV + " + " +
             std::to_string(R.range(0, 2)) + "];\n";
      break;
    case 9: // negated subscript store
      Src += Pad + "C[" + std::to_string(R.range(5, 9)) + " - " + IV +
             "] = " + V + ";\n";
      break;
    }
  }

  Lcg R;
  std::string Src;
};

/// Seeds array A, when \p F declares one, with mixed signs so conditional
/// paths both execute.
std::map<std::string, std::map<std::vector<int64_t>, int64_t>>
seedArrays(const ir::Function &F, Lcg &R) {
  std::map<std::string, std::map<std::vector<int64_t>, int64_t>> M;
  if (F.findArray("A"))
    for (int64_t I = -20; I <= 40; ++I)
      M["A"][{I}] = R.range(-5, 8);
  return M;
}

} // namespace

TEST(PropertyTest, RandomProgramsSatisfyAllOracles) {
  unsigned ClosedFormsChecked = 0, MonotonicChecked = 0, PeriodicChecked = 0,
           TripCountsChecked = 0, IndependentChecked = 0;
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    ProgramGen Gen(Seed);
    std::string Src = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Src);

    // Reference execution on the *unanalyzed* program (O5 baseline).
    auto FRef = frontend::parseAndLowerOrDie(Src);
    ssa::buildSSA(*FRef);
    Lcg SeedR(Seed * 77);
    auto Arrays = seedArrays(*FRef, SeedR);
    interp::ExecOptions ExecOpts;
    ExecOpts.MaxSteps = 4u << 20;
    interp::ExecutionTrace Ref =
        interp::runWithArrays(*FRef, {6}, Arrays, ExecOpts);
    ASSERT_TRUE(Ref.ok()) << Ref.Error;

    // Full pipeline (mutates the function: SCCP + exit values).
    Analyzed A = analyze(Src, /*RunSCCP=*/true);
    ssa::verifySSAOrDie(*A.F);
    interp::ExecutionTrace Post =
        interp::runWithArrays(*A.F, {6}, Arrays, ExecOpts);
    ASSERT_TRUE(Post.ok()) << Post.Error;

    // O5: behaviour unchanged by the analysis' instruction insertion.
    EXPECT_EQ(Ref.ReturnValue, Post.ReturnValue);
    ASSERT_EQ(Ref.Accesses.size(), Post.Accesses.size());
    for (size_t K = 0; K < Ref.Accesses.size(); ++K) {
      EXPECT_EQ(Ref.Accesses[K].A->name(), Post.Accesses[K].A->name());
      EXPECT_EQ(Ref.Accesses[K].Indices, Post.Accesses[K].Indices);
      EXPECT_EQ(Ref.Accesses[K].IsWrite, Post.Accesses[K].IsWrite);
    }

    for (const auto &L : A.LI->loops()) {
      // O4: numeric trip counts vs observed header visits.
      const ivclass::TripCountInfo &TC = A.IA->tripCount(L.get());
      ir::Instruction *AnyHeaderPhi =
          L->header()->phis().empty() ? nullptr : L->header()->phis()[0];
      if (TC.isCountable() && !TC.Guarded && AnyHeaderPhi &&
          L->depth() == 1) {
        std::optional<Rational> C = TC.count().getConstant();
        if (C && C->isInteger()) {
          size_t Visits = Post.sequenceOf(AnyHeaderPhi).size();
          EXPECT_EQ(static_cast<int64_t>(Visits), C->getInteger() + 1)
              << "loop " << L->name();
          ++TripCountsChecked;
        }
      }

      // O1-O3 on top-level loops (their symbols are run constants).
      if (L->depth() != 1)
        continue;
      for (ir::Instruction *Phi : L->header()->phis()) {
        const ivclass::Classification &C = A.IA->classify(Phi, L.get());
        const std::vector<int64_t> &Seq = Post.sequenceOf(Phi);
        if (Seq.size() < 2)
          continue;
        if (C.hasClosedForm() && !C.isInvariant()) {
          bool AllNumeric = true;
          for (size_t H = 0; H < Seq.size() && AllNumeric; ++H) {
            Affine V;
            try {
              V = C.Form.evaluateAt(H);
            } catch (const RationalOverflow &) {
              // The exact value left int64, so the machine run wrapped
              // before iteration H: the claim holds over Z and is
              // unfalsifiable by this execution.
              AllNumeric = false;
              break;
            }
            std::optional<Rational> VC = V.getConstant();
            if (!VC) {
              AllNumeric = false; // symbolic (e.g. argument): skip
              break;
            }
            ASSERT_TRUE(VC->isInteger());
            EXPECT_EQ(VC->getInteger(), Seq[H])
                << "loop " << L->name() << " phi " << Phi->name()
                << " at h=" << H;
          }
          ClosedFormsChecked += AllNumeric;
        } else if (C.isMonotonic()) {
          expectMonotoneTrace(C, Phi, Post);
          ++MonotonicChecked;
        } else if (C.isPeriodic()) {
          bool AllNumeric = true;
          for (size_t H = 0; H < Seq.size(); ++H) {
            const Affine &Init = C.RingInits[(C.Phase + H) % C.Period];
            std::optional<Rational> VC = Init.getConstant();
            if (!VC) {
              AllNumeric = false;
              break;
            }
            EXPECT_EQ(VC->getInteger(), Seq[H]);
          }
          PeriodicChecked += AllNumeric;
        }
      }
    }

    // O6: independence verdicts vs the dynamic access log.
    dependence::DependenceAnalyzer DA(*A.IA);
    std::vector<dependence::Dependence> Deps = DA.analyze();
    for (const dependence::Dependence &D : Deps) {
      if (D.Result.O !=
          dependence::DependenceResult::Outcome::Independent)
        continue;
      // Collect the cells each reference touched, from the per-instruction
      // value histories of its subscript operands.
      auto cellsOf = [&](const ir::Instruction *I) {
        std::set<std::vector<int64_t>> Cells;
        unsigned Rank = I->array()->rank();
        unsigned Base = I->opcode() == ir::Opcode::ArrayStore ? 1 : 0;
        // Length = executions of the reference = length of any
        // instruction-operand sequence; constants fill in directly.
        size_t Len = 0;
        for (unsigned Dim = 0; Dim < Rank; ++Dim)
          if (const auto *OpI = ir::dyn_cast<ir::Instruction>(
                  I->operand(Base + Dim)))
            Len = std::max(Len, Post.sequenceOf(OpI).size());
        if (Len == 0 && Rank > 0) {
          // All-constant subscripts: executed iff the enclosing block ran;
          // approximate by one cell (sound for the disjointness check).
          std::vector<int64_t> Cell;
          for (unsigned Dim = 0; Dim < Rank; ++Dim)
            Cell.push_back(
                ir::cast<ir::Constant>(I->operand(Base + Dim))->value());
          Cells.insert(Cell);
          return Cells;
        }
        for (size_t K = 0; K < Len; ++K) {
          std::vector<int64_t> Cell;
          bool OK = true;
          for (unsigned Dim = 0; Dim < Rank; ++Dim) {
            const ir::Value *Op = I->operand(Base + Dim);
            if (const auto *C = ir::dyn_cast<ir::Constant>(Op)) {
              Cell.push_back(C->value());
            } else if (const auto *OpI =
                           ir::dyn_cast<ir::Instruction>(Op)) {
              const auto &S = Post.sequenceOf(OpI);
              if (K >= S.size()) {
                OK = false;
                break;
              }
              Cell.push_back(S[K]);
            } else {
              OK = false;
              break;
            }
          }
          if (OK)
            Cells.insert(Cell);
        }
        return Cells;
      };
      std::set<std::vector<int64_t>> SrcCells = cellsOf(D.Src);
      for (const std::vector<int64_t> &Cell : cellsOf(D.Dst))
        EXPECT_FALSE(SrcCells.count(Cell))
            << "independent pair collided on a cell";
      ++IndependentChecked;
    }
  }
  // The sweep must actually have exercised the oracles.
  EXPECT_GT(ClosedFormsChecked, 20u);
  EXPECT_GT(MonotonicChecked, 5u);
  EXPECT_GT(PeriodicChecked, 5u);
  EXPECT_GT(TripCountsChecked, 30u);
  EXPECT_GT(IndependentChecked, 10u);
}
