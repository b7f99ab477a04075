//===- passes/Utils.h - Shared transform utilities --------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by multiple transforms: constant folding, instruction
/// simplification, CFG edge maintenance, reachability cleanup, and stable
/// value numbering for deterministic commutative canonicalization.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_PASSES_UTILS_H
#define COMPILER_GYM_PASSES_UTILS_H

#include "ir/Module.h"

#include <unordered_map>

namespace compiler_gym {
namespace passes {

/// Attempts to fold \p I to a constant (all operands constant). Returns the
/// folded constant or nullptr. Never folds side-effecting instructions.
/// Division by zero and other trapping cases return nullptr (the trap must
/// be preserved).
ir::Constant *foldConstant(const ir::Instruction &I, ir::Module &M);

/// Attempts to simplify \p I to an existing value via algebraic identities
/// (x+0, x*1, x&x, select c a a, ...). Returns the replacement or nullptr.
ir::Value *simplifyInstruction(const ir::Instruction &I, ir::Module &M);

/// Removes the phi entries for predecessor \p Pred from every phi in
/// \p BB. Used when deleting a CFG edge.
void removePhiIncomingFor(ir::BasicBlock &BB, ir::BasicBlock *Pred);

/// Rewrites phi incoming-block operands in \p BB from \p From to \p To.
void replacePhiIncomingBlock(ir::BasicBlock &BB, ir::BasicBlock *From,
                             ir::BasicBlock *To);

/// True if \p F has a block unreachable from its entry: exactly when
/// removeUnreachableBlocks(\p F) would change it.
bool hasUnreachableBlocks(const ir::Function &F);

/// Deletes blocks unreachable from the entry, maintaining the phis of the
/// surviving blocks. Returns true on change.
bool removeUnreachableBlocks(ir::Function &F);

/// Deterministic per-function value numbering: instructions by program
/// order, arguments by index, constants/globals by content. Used to order
/// commutative operands without depending on pointer values.
class StableValueIds {
public:
  explicit StableValueIds(const ir::Function &F);

  /// Total order over values appearing in \p F.
  uint64_t idOf(const ir::Value *V) const;

private:
  std::unordered_map<const ir::Value *, uint64_t> Ids;
};

/// True if the constant is an integer power of two (>= 1).
bool isPowerOfTwo(const ir::Constant &C, int &Log2Out);

} // namespace passes
} // namespace compiler_gym

#endif // COMPILER_GYM_PASSES_UTILS_H
