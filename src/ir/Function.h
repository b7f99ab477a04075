//===- ir/Function.h - IR function ------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function: arguments plus an owned list of basic blocks; the first block
/// is the entry. Values keep no use lists: code that needs a value's users,
/// or replaces all its uses, builds one ir::UseTable (ir/UseTable.h) per
/// function and patches it at each edit.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_FUNCTION_H
#define COMPILER_GYM_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace ir {

class Module;

/// A function definition.
class Function {
public:
  Function(std::string Name, Type ReturnType) : Name(std::move(Name)),
        ReturnType(ReturnType) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  Type returnType() const { return ReturnType; }

  Module *parent() const { return Parent; }
  void setParent(Module *M) { Parent = M; }

  /// Marks library-boundary functions that must not be inlined or removed
  /// (the mini-IR analogue of external linkage).
  bool isNoInline() const { return NoInline; }
  void setNoInline(bool V) { NoInline = V; }

  // -- Arguments ---------------------------------------------------------
  Argument *addArgument(Type Ty, std::string ArgName);
  size_t numArgs() const { return Args.size(); }
  Argument *arg(size_t I) const { return Args[I].get(); }

  // -- Blocks ------------------------------------------------------------
  bool empty() const { return Blocks.empty(); }
  size_t numBlocks() const { return Blocks.size(); }
  BasicBlock *entry() const { return Blocks.empty() ? nullptr
                                                    : Blocks.front().get(); }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }

  /// Creates and appends a new block.
  BasicBlock *createBlock(std::string BlockName);

  /// Removes (and destroys) \p BB. Branches to it must already be gone.
  void eraseBlock(BasicBlock *BB);

  /// Moves \p BB to position \p Pos in the block order (entry stays at 0
  /// by convention of callers).
  void moveBlock(BasicBlock *BB, size_t Pos);

  /// Finds a block by name; nullptr if absent.
  BasicBlock *findBlock(const std::string &BlockName) const;

  // -- Whole-function utilities ------------------------------------------
  /// Total instruction count.
  size_t instructionCount() const;

  /// Applies \p Fn to every instruction (in block/instruction order).
  void forEachInstruction(
      const std::function<void(BasicBlock &, Instruction &)> &Fn) const;

  /// Counts operand uses of every instruction/argument in one scan.
  std::unordered_map<const Value *, size_t> computeUseCounts() const;

private:
  std::string Name;
  Type ReturnType;
  Module *Parent = nullptr;
  bool NoInline = false;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_FUNCTION_H
