//===- ir/UseTable.h - Users of a function's values -------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// UseTable: the users of every argument and instruction of one function,
/// built in one pass over the function. Values keep no use lists (an
/// instruction knows only its operands), so code that asks for users or
/// replaces all uses of a value holds one table per function per pass and
/// patches it at each edit — never a whole-function scan per value.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_USETABLE_H
#define COMPILER_GYM_IR_USETABLE_H

#include "ir/Function.h"

#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace ir {

/// Users of one function's arguments and instructions. Each user is listed
/// once per value however many operands name the value: in block order at
/// build time, and appended after the build by add() and
/// replaceAllUsesWith(). Constants, globals, function refs and blocks are
/// not tracked, so branch targets and phi incoming blocks need no patching.
///
/// The table builds itself at its first query, so a pass may hold one for
/// every function it visits and pay for a build only where it replaces a
/// value. Until then add() and drop() do nothing. After the build every
/// operand edit must go through the table: setOperand() for one operand,
/// add() for an instruction inserted with operands, drop() for one about
/// to be erased. Code that erases whole blocks starts a new table instead.
class UseTable {
public:
  explicit UseTable(Function &F) : F(&F) {}

  /// The instructions that use \p V, an argument or instruction.
  const std::vector<Instruction *> &users(const Value *V);

  bool hasUses(const Value *V) { return !users(V).empty(); }

  /// Rewrites every operand of \p Old's users that names \p Old to \p New
  /// and moves those users to \p New. \p Old is an argument or
  /// instruction. Returns the number of operands rewritten.
  size_t replaceAllUsesWith(Value *Old, Value *New);

  /// Sets operand \p Idx of \p I to \p V and moves \p I between the two
  /// values' user lists as needed.
  void setOperand(Instruction &I, size_t Idx, Value *V);

  /// Records \p I, just inserted with its operands, as a user of each.
  void add(Instruction *I);

  /// Forgets \p I, which the caller is about to erase: it stops being a
  /// user of its operands and its own user list goes.
  void drop(const Instruction *I);

private:
  static bool tracked(const Value *V);
  void build();
  void unlink(const Value *V, const Instruction *User);

  Function *F;
  bool Built = false;
  std::unordered_map<const Value *, std::vector<Instruction *>> Users;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_USETABLE_H
