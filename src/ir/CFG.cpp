//===- ir/CFG.cpp ---------------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::ir;

PredecessorTable::PredecessorTable(const Function &F) {
  Blocks.reserve(F.numBlocks());
  Index.reserve(F.numBlocks());
  for (const auto &BB : F.blocks()) {
    Index.emplace(BB.get(), static_cast<unsigned>(Blocks.size()));
    Blocks.push_back(BB.get());
  }
  Preds.resize(Blocks.size());
  // Visiting sources in block order appends each list in block order.
  for (BasicBlock *BB : Blocks) {
    const Instruction *Term = BB->terminator();
    if (!Term)
      continue;
    for (unsigned S = 0; S < Term->numSuccessors(); ++S) {
      BasicBlock *Succ = Term->successor(S);
      if (S == 1 && Succ == Term->successor(0))
        continue; // condbr naming one target twice: one predecessor.
      unsigned SuccIdx = index(Succ);
      if (SuccIdx != npos)
        Preds[SuccIdx].push_back(BB);
    }
  }
}

unsigned PredecessorTable::index(const BasicBlock *BB) const {
  auto It = Index.find(BB);
  return It == Index.end() ? npos : It->second;
}

const std::vector<BasicBlock *> &
PredecessorTable::operator[](const BasicBlock *BB) const {
  static const std::vector<BasicBlock *> None;
  auto It = Index.find(BB);
  return It == Index.end() ? None : Preds[It->second];
}

void PredecessorTable::addEdge(BasicBlock *From, const BasicBlock *To) {
  assert(index(From) != npos && index(To) != npos && "edge outside table");
  std::vector<BasicBlock *> &List = Preds[index(To)];
  unsigned FromIdx = index(From);
  auto Pos = std::lower_bound(
      List.begin(), List.end(), FromIdx,
      [&](const BasicBlock *P, unsigned Idx) { return index(P) < Idx; });
  if (Pos == List.end() || *Pos != From)
    List.insert(Pos, From);
}

void PredecessorTable::removeEdge(const BasicBlock *From,
                                  const BasicBlock *To) {
  assert(index(To) != npos && "edge outside table");
  std::vector<BasicBlock *> &List = Preds[index(To)];
  List.erase(std::remove(List.begin(), List.end(), From), List.end());
}
