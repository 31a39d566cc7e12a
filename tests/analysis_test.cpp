//===- tests/analysis_test.cpp - Dominators and loop info unit tests ----------===//

#include "TestUtil.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace biv;
using namespace biv::testutil;
using namespace biv::analysis;

namespace {

std::unique_ptr<ir::Function> build(const std::string &Src) {
  return frontend::parseAndLowerOrDie(Src);
}

ir::BasicBlock *byName(const ir::Function &F, const std::string &N) {
  for (ir::BasicBlock *BB : F.blocks())
    if (BB->name() == N)
      return BB;
  return nullptr;
}

/// Brute-force dominance: A dominates B iff removing A disconnects B from
/// the entry.
bool bruteDominates(const ir::Function &F, const ir::BasicBlock *A,
                    const ir::BasicBlock *B) {
  if (A == B)
    return true;
  if (B == F.entry())
    return false; // the entry is dominated only by itself
  std::vector<char> Seen(F.numBlocks(), 0);
  std::vector<const ir::BasicBlock *> Work{F.entry()};
  if (F.entry() == A)
    return true;
  Seen[F.entry()->id()] = 1;
  while (!Work.empty()) {
    const ir::BasicBlock *BB = Work.back();
    Work.pop_back();
    for (ir::BasicBlock *S : BB->successors()) {
      if (S == A || Seen[S->id()])
        continue;
      if (S == B)
        return false;
      Seen[S->id()] = 1;
      Work.push_back(S);
    }
  }
  return true; // B unreachable without A (or unreachable entirely)
}

/// Is B reachable from the entry?
bool reachable(const ir::Function &F, const ir::BasicBlock *B) {
  std::vector<char> Seen(F.numBlocks(), 0);
  std::vector<const ir::BasicBlock *> Work{F.entry()};
  Seen[F.entry()->id()] = 1;
  while (!Work.empty()) {
    const ir::BasicBlock *BB = Work.back();
    Work.pop_back();
    if (BB == B)
      return true;
    for (ir::BasicBlock *S : BB->successors())
      if (!Seen[S->id()]) {
        Seen[S->id()] = 1;
        Work.push_back(S);
      }
  }
  return false;
}

/// Brute-force natural loops, by header: for every back edge (a reachable
/// edge into a block that dominates its source, by bruteDominates), the
/// header plus the blocks that reach the latch without passing through the
/// header, found by a predecessor walk.  Back edges into one header make
/// one loop.
std::map<const ir::BasicBlock *, std::set<const ir::BasicBlock *>>
bruteLoops(const ir::Function &F) {
  std::map<const ir::BasicBlock *, std::set<const ir::BasicBlock *>> Loops;
  for (const ir::BasicBlock *Latch : F.blocks()) {
    if (!reachable(F, Latch))
      continue;
    for (const ir::BasicBlock *Header : Latch->successors()) {
      if (!bruteDominates(F, Header, Latch))
        continue;
      std::set<const ir::BasicBlock *> &Body = Loops[Header];
      Body.insert(Header);
      std::vector<const ir::BasicBlock *> Work;
      if (Body.insert(Latch).second)
        Work.push_back(Latch);
      while (!Work.empty()) {
        const ir::BasicBlock *BB = Work.back();
        Work.pop_back();
        for (const ir::BasicBlock *P : BB->predecessors())
          if (Body.insert(P).second)
            Work.push_back(P);
      }
    }
  }
  return Loops;
}

/// Checks every LoopInfo answer for \p F against bruteLoops: the loops,
/// contains, the function order of blocks(), loopFor, parent, depth and
/// encloses.
void expectLoopInfoMatchesBruteForce(const ir::Function &F,
                                     const std::string &What) {
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  const auto Brute = bruteLoops(F);
  ASSERT_EQ(LI.loops().size(), Brute.size()) << What;
  // The innermost brute loop holding BB, skipping Skip: the smallest body.
  auto innermost = [&](const ir::BasicBlock *BB,
                       const ir::BasicBlock *Skip) -> const ir::BasicBlock * {
    const ir::BasicBlock *Best = nullptr;
    for (const auto &[Header, Body] : Brute)
      if (Header != Skip && Body.count(BB) &&
          (!Best || Body.size() < Brute.at(Best).size()))
        Best = Header;
    return Best;
  };
  auto headerOf = [](const Loop *L) {
    return L ? L->header() : static_cast<const ir::BasicBlock *>(nullptr);
  };
  for (const auto &L : LI.loops()) {
    auto It = Brute.find(L->header());
    ASSERT_NE(It, Brute.end()) << What << ": " << L->name();
    const std::set<const ir::BasicBlock *> &Body = It->second;
    std::vector<ir::BasicBlock *> InOrder;
    for (ir::BasicBlock *BB : F.blocks()) {
      EXPECT_EQ(L->contains(BB), Body.count(BB) != 0)
          << What << ": " << L->name() << " / " << BB->name();
      if (Body.count(BB))
        InOrder.push_back(BB);
    }
    EXPECT_EQ(L->blocks(), InOrder) << What << ": " << L->name();
    unsigned Depth = 1;
    for (const auto &[Header, Other] : Brute)
      Depth += Header != L->header() && Other.count(L->header());
    EXPECT_EQ(headerOf(L->parent()), innermost(L->header(), L->header()))
        << What << ": " << L->name();
    EXPECT_EQ(L->depth(), Depth) << What << ": " << L->name();
    for (const auto &M : LI.loops())
      EXPECT_EQ(L->encloses(M.get()), Body.count(M->header()) != 0)
          << What << ": " << L->name() << " / " << M->name();
  }
  for (const ir::BasicBlock *BB : F.blocks())
    EXPECT_EQ(headerOf(LI.loopFor(BB)), innermost(BB, nullptr))
        << What << ": " << BB->name();
}

/// \p K sibling loops in one function, each with a flip-flop flag: the
/// shape on which a per-loop scan of the function turns quadratic.
std::string siblingLoops(unsigned K) {
  std::string S = "func sib(n) {\n";
  for (unsigned I = 0; I < K; ++I) {
    const std::string N = std::to_string(I), T = "t" + N, Z = "z" + N;
    S += "  " + T + " = 0; " + Z + " = 0;\n  for L" + N + ": i" + N +
         " = 1 to n {\n    if (" + T + " == 0) { " + Z + " = " + Z +
         " + 5; " + T + " = 1; } else { " + Z + " = " + Z + " - 2; " + T +
         " = 0; }\n  }\n";
  }
  return S + "  return z0;\n}\n";
}

/// A nest \p Depth deep.  Each level also holds a sibling loop before its
/// inner loop and a conditional after it, and the innermost level a loop
/// with two breaks.
std::string loopNest(unsigned Depth) {
  std::string Open, Close;
  for (unsigned D = 0; D < Depth; ++D) {
    const std::string N = std::to_string(D);
    Open += "for N" + N + ": a" + N + " = 1 to n {\n  s = s + a" + N +
            ";\n  for S" + N + ": b" + N + " = 1 to a" + N +
            " { s = s + 1; }\n";
    Close = "  if (s > n) { s = s - 1; }\n}\n" + Close;
  }
  return "func nest(n) {\n  s = 0;\n" + Open +
         "loop W { s = s + 1; if (s > 9) break; if (s > 2 * n) break; }\n" +
         Close + "  return s;\n}\n";
}

std::vector<std::filesystem::path> bivFiles(const char *Dir) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".biv")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

} // namespace

TEST(DominatorTest, DiamondShape) {
  auto F = build("func f(n) {"
                 "  if (n > 0) { x = 1; } else { x = 2; }"
                 "  return x;"
                 "}");
  DominatorTree DT(*F);
  ir::BasicBlock *Entry = F->entry();
  ir::BasicBlock *Then = byName(*F, "if.then");
  ir::BasicBlock *Else = byName(*F, "if.else");
  ir::BasicBlock *Join = byName(*F, "if.join");
  ASSERT_TRUE(Then && Else && Join);
  EXPECT_TRUE(DT.dominates(Entry, Join));
  EXPECT_FALSE(DT.dominates(Then, Join));
  EXPECT_FALSE(DT.dominates(Else, Join));
  EXPECT_EQ(DT.idom(Join), Entry);
  EXPECT_EQ(DT.idom(Then), Entry);
  EXPECT_TRUE(DT.properlyDominates(Entry, Then));
  EXPECT_FALSE(DT.properlyDominates(Entry, Entry));
}

TEST(DominatorTest, MatchesBruteForceOnRealPrograms) {
  const char *Programs[] = {
      "func a(n) { s = 0; for L: i = 1 to n { if (i > 2) { s = s + 1; }"
      " else { s = s + 2; } } return s; }",
      "func b(n) { x = 0; loop L1 { x = x + 1; if (x > n) break;"
      " loop L2 { x = x + 2; if (x > 2 * n) break; } } return x; }",
      "func c(n) { if (n > 0) { if (n > 1) { x = 1; } else { x = 2; } }"
      " else { x = 3; } while (x < n) { x = x + 1; } return x; }",
  };
  for (const char *Src : Programs) {
    auto F = build(Src);
    DominatorTree DT(*F);
    for (const ir::BasicBlock *A : F->blocks())
      for (const ir::BasicBlock *B : F->blocks()) {
        if (!reachable(*F, A) || !reachable(*F, B))
          continue;
        EXPECT_EQ(DT.dominates(A, B), bruteDominates(*F, A, B))
            << Src << ": " << A->name() << " vs " << B->name();
      }
  }
}

TEST(DominatorTest, InstructionLevelDominance) {
  auto F = build("func f(n) { x = n + 1; y = x * 2; return y; }");
  DominatorTree DT(*F);
  const ir::BasicBlock *Entry = F->entry();
  const ir::Instruction *X = Entry->instructions()[0];
  const ir::Instruction *Y = Entry->instructions()[1];
  EXPECT_TRUE(DT.dominates(X, Y));
  EXPECT_FALSE(DT.dominates(Y, X));
  EXPECT_FALSE(DT.dominates(X, X));
}

TEST(DominanceFrontierTest, JoinIsInBranchFrontiers) {
  auto F = build("func f(n) {"
                 "  if (n > 0) { x = 1; } else { x = 2; }"
                 "  return x;"
                 "}");
  DominatorTree DT(*F);
  DominanceFrontier DF(DT);
  ir::BasicBlock *Then = byName(*F, "if.then");
  ir::BasicBlock *Join = byName(*F, "if.join");
  const auto &Frontier = DF.frontier(Then);
  EXPECT_NE(std::find(Frontier.begin(), Frontier.end(), Join),
            Frontier.end());
  // The entry dominates everything: empty frontier.
  EXPECT_TRUE(DF.frontier(F->entry()).empty());
}

TEST(DominanceFrontierTest, LoopHeaderInLatchFrontier) {
  auto F = build("func f(n) { s = 0; for L: i = 1 to n { s = s + 1; }"
                 " return s; }");
  DominatorTree DT(*F);
  DominanceFrontier DF(DT);
  ir::BasicBlock *Latch = byName(*F, "L.latch");
  ir::BasicBlock *Header = byName(*F, "L.header");
  ASSERT_TRUE(Latch && Header);
  const auto &Frontier = DF.frontier(Latch);
  EXPECT_NE(std::find(Frontier.begin(), Frontier.end(), Header),
            Frontier.end());
  // The header is in its own frontier (it does not strictly dominate
  // itself as a join of the backedge).
  const auto &HF = DF.frontier(Header);
  EXPECT_NE(std::find(HF.begin(), HF.end(), Header), HF.end());
}

TEST(LoopInfoTest, WhileLoopShape) {
  auto F = build("func f(n) { x = 0; while W: (x < n) { x = x + 1; }"
                 " return x; }");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop *L = LI.loops()[0].get();
  EXPECT_EQ(L->name(), "W");
  EXPECT_NE(L->preheader(), nullptr);
  EXPECT_EQ(L->exitingBlocks().size(), 1u);
  EXPECT_EQ(L->exitingBlocks()[0], L->header());
}

TEST(LoopInfoTest, MultipleBreaksOneLoop) {
  auto F = build("func f(n) {"
                 "  x = 0;"
                 "  loop L {"
                 "    x = x + 1;"
                 "    if (x > n) break;"
                 "    if (x > 2 * n) break;"
                 "  }"
                 "  return x;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0]->exitingBlocks().size(), 2u);
  EXPECT_EQ(LI.loops()[0]->latches().size(), 1u);
}

TEST(LoopInfoTest, SiblingsAndNesting) {
  auto F = build("func f(n) {"
                 "  for L1: i = 1 to n {"
                 "    for L2: j = 1 to n { A[i, j] = 0; }"
                 "    for L3: j = 1 to n { A[i, j] = 1; }"
                 "  }"
                 "  for L4: i = 1 to n { B[i] = 0; }"
                 "  return 0;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 4u);
  EXPECT_EQ(LI.topLevel().size(), 2u);
  Loop *L1 = LI.byName("L1");
  Loop *L2 = LI.byName("L2");
  Loop *L3 = LI.byName("L3");
  Loop *L4 = LI.byName("L4");
  EXPECT_EQ(L2->parent(), L1);
  EXPECT_EQ(L3->parent(), L1);
  EXPECT_EQ(L4->parent(), nullptr);
  EXPECT_EQ(L1->subLoops().size(), 2u);
  // loopFor maps blocks to the innermost loop.
  EXPECT_EQ(LI.loopFor(L2->header()), L2);
  EXPECT_EQ(LI.loopFor(L1->header()), L1);
}

TEST(LoopInfoTest, InnerToOuterOrder) {
  auto F = build("func f(n) {"
                 "  for L1: a = 1 to n {"
                 "    for L2: b = 1 to n {"
                 "      for L3: c = 1 to n { A[c] = 0; }"
                 "    }"
                 "  }"
                 "  return 0;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  std::vector<Loop *> Order = LI.innerToOuter();
  ASSERT_EQ(Order.size(), 3u);
  // Children before parents.
  for (size_t I = 0; I < Order.size(); ++I)
    for (size_t J = I + 1; J < Order.size(); ++J)
      EXPECT_FALSE(Order[I]->encloses(Order[J]) && Order[I] != Order[J]);
}

TEST(LoopInfoTest, LoopBlocksAndContains) {
  auto F = build("func f(n) {"
                 "  s = 0;"
                 "  for L: i = 1 to n {"
                 "    if (i > 2) { s = s + 1; }"
                 "  }"
                 "  return s;"
                 "}");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  Loop *L = LI.byName("L");
  ASSERT_NE(L, nullptr);
  // header, body, if.then, if.join, latch.
  EXPECT_EQ(L->blocks().size(), 5u);
  EXPECT_TRUE(L->contains(L->header()));
  EXPECT_FALSE(L->contains(F->entry()));
  for (ir::BasicBlock *BB : L->exitBlocks())
    EXPECT_FALSE(L->contains(BB));
}

TEST(LoopInfoTest, MatchesBruteForceOnRealPrograms) {
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"siblings", siblingLoops(48)}, {"nest", loopNest(9)}};
  size_t Files = 0;
  for (const char *Dir : {BIV_CORPUS_DIR, BIV_SAMPLES_DIR})
    for (const std::filesystem::path &P : bivFiles(Dir)) {
      std::ifstream In(P);
      std::ostringstream Src;
      Src << In.rdbuf();
      Programs.push_back({P.filename().string(), Src.str()});
      ++Files;
    }
  EXPECT_GT(Files, 20u) << "corpus or samples missing";
  for (const auto &[Name, Src] : Programs) {
    // Straight from the front end, as peeling sees it, and after SSA,
    // SCCP and the analysis, which inserts exit values.
    expectLoopInfoMatchesBruteForce(*build(Src), Name + " (lowered)");
    testutil::Analyzed P = testutil::analyze(Src, /*RunSCCP=*/true);
    expectLoopInfoMatchesBruteForce(*P.F, Name + " (analyzed)");
  }
}
