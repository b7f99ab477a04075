//===- ir/Dominators.h - Dominator tree and natural loops -------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm) and
/// natural-loop discovery via back edges. Used by the verifier (defs must
/// dominate uses), LICM, loop unrolling and GVN. Both read predecessors
/// from one PredecessorTable (ir/CFG.h) built per call.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_DOMINATORS_H
#define COMPILER_GYM_IR_DOMINATORS_H

#include "ir/Function.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace compiler_gym {
namespace ir {

/// Dominator tree over the reachable CFG of one function, built from a
/// PredecessorTable: Cooper-Harvey-Kennedy on dense reverse-postorder
/// numbers, then a preorder numbering of the tree, so dominates() is two
/// lookups and two compares.
class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  /// True if \p A dominates \p B (reflexive). Unreachable blocks dominate
  /// nothing and are dominated by everything (conservative).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Immediate dominator; nullptr for the entry or unreachable blocks.
  BasicBlock *idom(const BasicBlock *BB) const;

  /// True if the block was reachable from the entry at analysis time.
  bool isReachable(const BasicBlock *BB) const {
    return Node.count(BB) != 0;
  }

  /// Reverse postorder over reachable blocks.
  const std::vector<BasicBlock *> &reversePostorder() const { return Rpo; }

  /// Structural equality with \p Other (same RPO, reachability and idoms
  /// over \p F's blocks). Used by the pass layer's preservation checker to
  /// compare a cached tree against a from-scratch recomputation.
  bool structurallyEquals(const Function &F, const DominatorTree &Other) const;

private:
  /// Reachable block -> node, its reverse-postorder position (Rpo[node]).
  std::unordered_map<const BasicBlock *, unsigned> Node;
  std::vector<unsigned> IdomNode; ///< The entry's idom is itself.
  /// Preorder number and subtree size of each node: A dominates B iff
  /// In[A] <= In[B] < In[A] + Size[A].
  std::vector<unsigned> In, Size;
  std::vector<BasicBlock *> Rpo;
};

/// A natural loop: header plus the set of blocks on paths from latches back
/// to the header.
struct NaturalLoop {
  BasicBlock *Header = nullptr;
  std::vector<BasicBlock *> Latches;              ///< Blocks with back edges.
  std::unordered_set<BasicBlock *> Blocks;        ///< Includes the header.

  bool contains(const BasicBlock *BB) const {
    return Blocks.count(const_cast<BasicBlock *>(BB)) != 0;
  }
};

/// Finds all natural loops (one per header; back edges to the same header
/// are merged). Loops are returned outermost-first by header RPO position.
std::vector<NaturalLoop> findNaturalLoops(const Function &F,
                                          const DominatorTree &DT);

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_DOMINATORS_H
