//===- ir/Function.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::ir;

Argument *Function::addArgument(Type Ty, std::string ArgName) {
  auto Arg = std::make_unique<Argument>(
      Ty, static_cast<unsigned>(Args.size()), this);
  Arg->setName(std::move(ArgName));
  Args.push_back(std::move(Arg));
  return Args.back().get();
}

BasicBlock *Function::createBlock(std::string BlockName) {
  auto BB = std::make_unique<BasicBlock>(std::move(BlockName));
  BB->setParent(this);
  Blocks.push_back(std::move(BB));
  return Blocks.back().get();
}

void Function::eraseBlock(BasicBlock *BB) {
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &P) { return P.get() == BB; });
  assert(It != Blocks.end() && "block not in function");
  Blocks.erase(It);
}

void Function::moveBlock(BasicBlock *BB, size_t Pos) {
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &P) { return P.get() == BB; });
  assert(It != Blocks.end() && "block not in function");
  assert(Pos < Blocks.size() && "move position out of range");
  std::unique_ptr<BasicBlock> Owned = std::move(*It);
  Blocks.erase(It);
  Blocks.insert(Blocks.begin() + Pos, std::move(Owned));
}

BasicBlock *Function::findBlock(const std::string &BlockName) const {
  for (const auto &BB : Blocks)
    if (BB->name() == BlockName)
      return BB.get();
  return nullptr;
}

size_t Function::instructionCount() const {
  size_t N = 0;
  for (const auto &BB : Blocks)
    N += BB->size();
  return N;
}

void Function::forEachInstruction(
    const std::function<void(BasicBlock &, Instruction &)> &Fn) const {
  for (const auto &BB : Blocks)
    for (const auto &I : BB->instructions())
      Fn(*BB, *I);
}

std::unordered_map<const Value *, size_t> Function::computeUseCounts() const {
  std::unordered_map<const Value *, size_t> Counts;
  forEachInstruction([&](BasicBlock &, Instruction &I) {
    for (const Value *Op : I.operands())
      ++Counts[Op];
  });
  return Counts;
}
