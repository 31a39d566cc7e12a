//===- ssa/SSAVerifier.cpp - SSA dominance verification ----------------------===//

#include "ssa/SSAVerifier.h"
#include "analysis/DominatorTree.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace biv;
using namespace biv::ssa;

std::vector<std::string> biv::ssa::verifySSA(const ir::Function &F) {
  std::vector<std::string> Problems = ir::verify(F);
  if (!Problems.empty())
    return Problems;

  analysis::DominatorTree DT(F);
  // The printer walks the whole function to number its temps, so only
  // build it if something is actually wrong.
  std::optional<ir::Printer> LazyP;
  auto P = [&]() -> ir::Printer & {
    if (!LazyP)
      LazyP.emplace(F);
    return *LazyP;
  };

  for (const ir::BasicBlock *BB : F.blocks())
    for (const ir::Instruction *I : *BB) {
      if (I->opcode() == ir::Opcode::LoadVar ||
          I->opcode() == ir::Opcode::StoreVar) {
        Problems.push_back("scalar access survived SSA construction: " +
                           P().str(I));
        continue;
      }
      if (I->isPhi()) {
        // Each incoming must dominate the end of its incoming block.
        for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx) {
          const auto *Def = ir::dyn_cast<ir::Instruction>(I->operand(Idx));
          if (!Def)
            continue;
          const ir::BasicBlock *In = I->blocks()[Idx];
          if (Def->parent() != In && !DT.properlyDominates(Def->parent(), In))
            Problems.push_back("phi incoming does not dominate edge: " +
                               P().str(I));
        }
        continue;
      }
      for (const ir::Value *Op : I->operands()) {
        const auto *Def = ir::dyn_cast<ir::Instruction>(Op);
        if (Def && !DT.dominates(Def, I))
          Problems.push_back("use not dominated by definition: " + P().str(I) +
                             " uses " + P().nameOf(Def));
      }
    }
  return Problems;
}

void biv::ssa::verifySSAOrDie(const ir::Function &F) {
  std::vector<std::string> Problems = verifySSA(F);
  if (Problems.empty())
    return;
  std::fprintf(stderr, "SSA verification failed for %s:\n",
               F.name().c_str());
  for (const std::string &Msg : Problems)
    std::fprintf(stderr, "  %s\n", Msg.c_str());
  std::fprintf(stderr, "%s", ir::toString(F).c_str());
  std::abort();
}
