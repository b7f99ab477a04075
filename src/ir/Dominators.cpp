//===- ir/Dominators.cpp --------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

#include "ir/CFG.h"

#include <deque>

using namespace compiler_gym;
using namespace compiler_gym::ir;

DominatorTree::DominatorTree(const Function &F) {
  if (F.empty())
    return;
  constexpr unsigned None = ~0u;
  PredecessorTable Preds(F);

  // Postorder DFS over reachable blocks, by dense table index, with an
  // explicit (block, successor-cursor) stack.
  std::vector<unsigned> Postorder;
  std::vector<char> Visited(Preds.size(), 0);
  std::vector<std::pair<unsigned, unsigned>> Stack;
  Stack.emplace_back(0, 0); // The entry is block 0.
  Visited[0] = 1;
  while (!Stack.empty()) {
    auto &[Idx, Cursor] = Stack.back();
    const Instruction *Term = Preds.block(Idx)->terminator();
    if (Term && Cursor < Term->numSuccessors()) {
      unsigned Next = Preds.index(Term->successor(Cursor++));
      if (Next != PredecessorTable::npos && !Visited[Next]) {
        Visited[Next] = 1;
        Stack.emplace_back(Next, 0);
      }
      continue;
    }
    Postorder.push_back(Idx);
    Stack.pop_back();
  }

  // Nodes are reverse-postorder positions: the entry is node 0 and every
  // node's idom has a smaller number.
  const unsigned N = static_cast<unsigned>(Postorder.size());
  std::vector<unsigned> NodeOf(Preds.size(), None);
  Rpo.reserve(N);
  Node.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    unsigned Idx = Postorder[N - 1 - I];
    NodeOf[Idx] = I;
    Rpo.push_back(Preds.block(Idx));
    Node.emplace(Rpo.back(), I);
  }

  // Reachable predecessors of each node, as node numbers.
  std::vector<unsigned> PredStart(N + 1, 0), PredNodes;
  for (unsigned V = 0; V < N; ++V) {
    for (BasicBlock *P : Preds[Rpo[V]])
      if (unsigned PN = NodeOf[Preds.index(P)]; PN != None)
        PredNodes.push_back(PN);
    PredStart[V + 1] = static_cast<unsigned>(PredNodes.size());
  }

  // Cooper-Harvey-Kennedy iteration.
  auto intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = IdomNode[A];
      while (B > A)
        B = IdomNode[B];
    }
    return A;
  };
  IdomNode.assign(N, None);
  IdomNode[0] = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned V = 1; V < N; ++V) {
      unsigned NewIdom = None;
      for (unsigned K = PredStart[V]; K < PredStart[V + 1]; ++K) {
        unsigned P = PredNodes[K];
        if (IdomNode[P] == None)
          continue; // Not yet processed this round.
        NewIdom = NewIdom == None ? P : intersect(NewIdom, P);
      }
      if (NewIdom != None && IdomNode[V] != NewIdom) {
        IdomNode[V] = NewIdom;
        Changed = true;
      }
    }
  }

  // Preorder numbers over the tree. An idom precedes its children in
  // reverse postorder, so one backward sweep sums subtree sizes and one
  // forward sweep hands each child the next free slot of its parent's
  // range.
  Size.assign(N, 1);
  for (unsigned V = N; V-- > 1;)
    Size[IdomNode[V]] += Size[V];
  In.assign(N, 0);
  std::vector<unsigned> NextSlot(N, 1);
  for (unsigned V = 1; V < N; ++V) {
    In[V] = NextSlot[IdomNode[V]];
    NextSlot[IdomNode[V]] += Size[V];
    NextSlot[V] = In[V] + 1;
  }
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  auto BIt = Node.find(B);
  if (BIt == Node.end())
    return true; // B unreachable: vacuously dominated.
  auto AIt = Node.find(A);
  if (AIt == Node.end())
    return false; // A unreachable: dominates nothing reachable.
  unsigned NA = AIt->second, NB = BIt->second;
  return In[NA] <= In[NB] && In[NB] < In[NA] + Size[NA];
}

BasicBlock *DominatorTree::idom(const BasicBlock *BB) const {
  auto It = Node.find(BB);
  if (It == Node.end() || IdomNode[It->second] == It->second)
    return nullptr;
  return Rpo[IdomNode[It->second]];
}

std::vector<NaturalLoop>
ir::findNaturalLoops(const Function &F, const DominatorTree &DT) {
  PredecessorTable Preds(F);
  std::unordered_map<BasicBlock *, NaturalLoop> LoopsByHeader;

  for (const auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    const Instruction *Term = BB->terminator();
    if (!Term || !DT.isReachable(BB))
      continue;
    for (unsigned S = 0; S < Term->numSuccessors(); ++S) {
      BasicBlock *Succ = Term->successor(S);
      if (!DT.dominates(Succ, BB))
        continue; // Not a back edge.
      NaturalLoop &Loop = LoopsByHeader[Succ];
      Loop.Header = Succ;
      Loop.Latches.push_back(BB);
      // Walk predecessors from the latch up to the header.
      Loop.Blocks.insert(Succ);
      std::deque<BasicBlock *> Work{BB};
      while (!Work.empty()) {
        BasicBlock *Cur = Work.front();
        Work.pop_front();
        if (!Loop.Blocks.insert(Cur).second)
          continue;
        for (BasicBlock *Pred : Preds[Cur])
          if (DT.isReachable(Pred))
            Work.push_back(Pred);
      }
    }
  }

  // Outermost (earliest header in RPO) first, deterministically.
  std::vector<NaturalLoop> Out;
  Out.reserve(LoopsByHeader.size());
  for (BasicBlock *BB : DT.reversePostorder())
    if (auto It = LoopsByHeader.find(BB); It != LoopsByHeader.end())
      Out.push_back(std::move(It->second));
  return Out;
}

bool DominatorTree::structurallyEquals(const Function &F,
                                       const DominatorTree &Other) const {
  if (Rpo != Other.Rpo)
    return false;
  for (const auto &BB : F.blocks()) {
    if (isReachable(BB.get()) != Other.isReachable(BB.get()))
      return false;
    if (idom(BB.get()) != Other.idom(BB.get()))
      return false;
  }
  return true;
}
