//===- ir/UseTable.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/UseTable.h"

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::ir;

bool UseTable::tracked(const Value *V) {
  return isa<Instruction>(V) || isa<Argument>(V);
}

void UseTable::build() {
  Built = true;
  Users.reserve(F->numArgs() + F->instructionCount());
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      add(I.get());
}

const std::vector<Instruction *> &UseTable::users(const Value *V) {
  static const std::vector<Instruction *> None;
  assert(tracked(V) && "users of a value the table does not track");
  if (!Built)
    build();
  auto It = Users.find(V);
  return It == Users.end() ? None : It->second;
}

size_t UseTable::replaceAllUsesWith(Value *Old, Value *New) {
  assert(Old != New && "RAUW with identical values");
  assert(tracked(Old) && "RAUW of a value the table does not track");
  if (!Built)
    build();
  auto It = Users.find(Old);
  if (It == Users.end())
    return 0;
  std::vector<Instruction *> Moved = std::move(It->second);
  Users.erase(It);
  std::vector<Instruction *> *NewUsers = tracked(New) ? &Users[New] : nullptr;
  size_t Rewritten = 0;
  for (Instruction *User : Moved) {
    bool UsedOld = false, UsedNew = false;
    for (size_t Op = 0; Op < User->numOperands(); ++Op) {
      if (User->operand(Op) == Old) {
        User->setOperand(Op, New);
        UsedOld = true;
        ++Rewritten;
      } else if (User->operand(Op) == New) {
        UsedNew = true; // Already listed under New.
      }
    }
    if (NewUsers && UsedOld && !UsedNew)
      NewUsers->push_back(User);
  }
  return Rewritten;
}

void UseTable::setOperand(Instruction &I, size_t Idx, Value *V) {
  Value *Old = I.operand(Idx);
  if (Old == V)
    return;
  I.setOperand(Idx, V);
  if (!Built)
    return;
  const std::vector<Value *> &Ops = I.operands();
  if (tracked(Old) && std::find(Ops.begin(), Ops.end(), Old) == Ops.end())
    unlink(Old, &I);
  if (tracked(V) && std::count(Ops.begin(), Ops.end(), V) == 1)
    Users[V].push_back(&I);
}

void UseTable::add(Instruction *I) {
  if (!Built)
    return;
  for (const Value *Op : I->operands()) {
    if (!tracked(Op))
      continue;
    std::vector<Instruction *> &List = Users[Op];
    // Operands are visited together, so a repeat finds I at the back.
    if (List.empty() || List.back() != I)
      List.push_back(I);
  }
}

void UseTable::drop(const Instruction *I) {
  if (!Built)
    return;
  for (const Value *Op : I->operands())
    if (tracked(Op))
      unlink(Op, I);
  Users.erase(I);
}

void UseTable::unlink(const Value *V, const Instruction *User) {
  auto It = Users.find(V);
  if (It == Users.end())
    return;
  std::vector<Instruction *> &List = It->second;
  auto Pos = std::find(List.begin(), List.end(), User);
  if (Pos != List.end())
    List.erase(Pos);
}
