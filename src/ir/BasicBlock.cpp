//===- ir/BasicBlock.cpp --------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"

using namespace compiler_gym;
using namespace compiler_gym::ir;

Instruction *BasicBlock::append(std::unique_ptr<Instruction> I) {
  I->setParent(this);
  Insts.push_back(std::move(I));
  return Insts.back().get();
}

Instruction *BasicBlock::insert(size_t Pos, std::unique_ptr<Instruction> I) {
  assert(Pos <= Insts.size() && "insert position out of range");
  I->setParent(this);
  auto It = Insts.insert(Insts.begin() + Pos, std::move(I));
  return It->get();
}

void BasicBlock::erase(size_t Pos) {
  assert(Pos < Insts.size() && "erase position out of range");
  Insts.erase(Insts.begin() + Pos);
}

std::unique_ptr<Instruction> BasicBlock::detach(size_t Pos) {
  assert(Pos < Insts.size() && "detach position out of range");
  std::unique_ptr<Instruction> Out = std::move(Insts[Pos]);
  Insts.erase(Insts.begin() + Pos);
  Out->setParent(nullptr);
  return Out;
}

size_t BasicBlock::indexOf(const Instruction *I) const {
  for (size_t Idx = 0; Idx < Insts.size(); ++Idx)
    if (Insts[Idx].get() == I)
      return Idx;
  assert(false && "instruction not in block");
  return Insts.size();
}

Instruction *BasicBlock::terminator() const {
  if (Insts.empty())
    return nullptr;
  Instruction *Last = Insts.back().get();
  return Last->isTerminator() ? Last : nullptr;
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  Instruction *Term = terminator();
  return Term ? Term->successors() : std::vector<BasicBlock *>();
}

size_t BasicBlock::firstNonPhi() const {
  size_t I = 0;
  while (I < Insts.size() && Insts[I]->opcode() == Opcode::Phi)
    ++I;
  return I;
}
