//===- ir/CFG.h - Predecessor table -----------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PredecessorTable: every block's predecessors in one function, built in
/// one pass over the terminators. Blocks keep successor edges only (their
/// terminator's operands), so code that asks for predecessors builds one
/// table per function, or per round of CFG edits, and patches it where an
/// edit is local — never a whole-function scan per query.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_CFG_H
#define COMPILER_GYM_IR_CFG_H

#include "ir/Function.h"

#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace ir {

/// Predecessor lists of one function's blocks. Each list names every
/// predecessor once (a condbr whose two targets are the same block is one
/// predecessor), in function block order. The table is a snapshot: after a
/// CFG edit it is stale until the editor patches it with addEdge() and
/// removeEdge(), or builds a new one.
class PredecessorTable {
public:
  explicit PredecessorTable(const Function &F);

  /// Number of blocks the function had at build time.
  size_t size() const { return Blocks.size(); }

  static constexpr unsigned npos = ~0u;

  /// Dense index of \p BB: its position in the function's block order at
  /// build time; npos if \p BB was not in the function then.
  unsigned index(const BasicBlock *BB) const;

  /// The block at dense index \p Idx.
  BasicBlock *block(unsigned Idx) const { return Blocks[Idx]; }

  /// The predecessors of \p BB. A block the table has not seen (created
  /// after the build) has none.
  const std::vector<BasicBlock *> &operator[](const BasicBlock *BB) const;

  /// Records a new edge \p From -> \p To (no-op if \p From is already a
  /// predecessor). Keeps \p To's list in function block order.
  void addEdge(BasicBlock *From, const BasicBlock *To);

  /// Records that \p From no longer branches to \p To.
  void removeEdge(const BasicBlock *From, const BasicBlock *To);

private:
  std::vector<BasicBlock *> Blocks;
  std::unordered_map<const BasicBlock *, unsigned> Index;
  std::vector<std::vector<BasicBlock *>> Preds;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_CFG_H
