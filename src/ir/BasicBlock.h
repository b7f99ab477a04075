//===- ir/BasicBlock.h - CFG node -------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BasicBlock: an ordered list of instructions ending in a terminator.
/// Blocks own their instructions. Blocks are Values (type Label) so branch
/// instructions can reference them as ordinary operands.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_BASICBLOCK_H
#define COMPILER_GYM_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <memory>
#include <vector>

namespace compiler_gym {
namespace ir {

class Function;

/// A straight-line sequence of instructions with a single terminator.
class BasicBlock : public Value {
public:
  explicit BasicBlock(std::string Name)
      : Value(ValueKind::Block, Type::Label) {
    setName(std::move(Name));
  }

  Function *parent() const { return Parent; }
  void setParent(Function *F) { Parent = F; }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  Instruction *front() const { return Insts.front().get(); }
  Instruction *back() const { return Insts.back().get(); }

  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Insts;
  }

  /// Appends \p I (takes ownership) and returns the raw pointer.
  Instruction *append(std::unique_ptr<Instruction> I);

  /// Inserts before index \p Pos.
  Instruction *insert(size_t Pos, std::unique_ptr<Instruction> I);

  /// Removes and destroys the instruction at index \p Pos.
  void erase(size_t Pos);

  /// Removes the instruction at \p Pos and transfers ownership to caller.
  std::unique_ptr<Instruction> detach(size_t Pos);

  /// Index of \p I within this block; asserts if absent.
  size_t indexOf(const Instruction *I) const;

  /// The terminator, or nullptr if the block is empty / malformed.
  Instruction *terminator() const;

  /// Successor blocks (from the terminator). Predecessors come from an
  /// ir::PredecessorTable (ir/CFG.h), built once per function.
  std::vector<BasicBlock *> successors() const;

  /// Phi-node prefix length (phis must be grouped at the top).
  size_t firstNonPhi() const;

  static bool classof(const Value *V) { return V->kind() == ValueKind::Block; }

private:
  Function *Parent = nullptr;
  std::vector<std::unique_ptr<Instruction>> Insts;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_BASICBLOCK_H
