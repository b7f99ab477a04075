//===- passes/Utils.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Utils.h"

#include "util/Hash.h"

#include <bit>
#include <cmath>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

Constant *passes::foldConstant(const Instruction &I, Module &M) {
  if (I.hasSideEffects() || I.opcode() == Opcode::Phi ||
      I.opcode() == Opcode::Alloca || I.opcode() == Opcode::Load)
    return nullptr;
  for (const Value *Op : I.operands())
    if (!isa<Constant>(Op))
      return nullptr;

  auto intOp = [&](size_t Idx) {
    return cast<Constant>(I.operand(Idx))->intValue();
  };
  auto fltOp = [&](size_t Idx) {
    return cast<Constant>(I.operand(Idx))->floatValue();
  };
  auto wrap = [&](int64_t V) { return M.getConstInt(I.type(), V); };

  switch (I.opcode()) {
  case Opcode::Add:
    return wrap(static_cast<int64_t>(static_cast<uint64_t>(intOp(0)) +
                                     static_cast<uint64_t>(intOp(1))));
  case Opcode::Sub:
    return wrap(static_cast<int64_t>(static_cast<uint64_t>(intOp(0)) -
                                     static_cast<uint64_t>(intOp(1))));
  case Opcode::Mul:
    return wrap(static_cast<int64_t>(static_cast<uint64_t>(intOp(0)) *
                                     static_cast<uint64_t>(intOp(1))));
  case Opcode::SDiv: {
    int64_t L = intOp(0), R = intOp(1);
    if (R == 0 || (L == INT64_MIN && R == -1))
      return nullptr; // Preserve the trap.
    return wrap(L / R);
  }
  case Opcode::SRem: {
    int64_t L = intOp(0), R = intOp(1);
    if (R == 0 || (L == INT64_MIN && R == -1))
      return nullptr;
    return wrap(L % R);
  }
  case Opcode::And:
    return wrap(intOp(0) & intOp(1));
  case Opcode::Or:
    return wrap(intOp(0) | intOp(1));
  case Opcode::Xor:
    return wrap(intOp(0) ^ intOp(1));
  case Opcode::Shl:
    return wrap(static_cast<int64_t>(static_cast<uint64_t>(intOp(0))
                                     << (static_cast<uint64_t>(intOp(1)) &
                                         63)));
  case Opcode::LShr: {
    uint64_t L = static_cast<uint64_t>(intOp(0));
    if (I.type() == Type::I32)
      L &= 0xFFFFFFFFull;
    return wrap(
        static_cast<int64_t>(L >> (static_cast<uint64_t>(intOp(1)) & 63)));
  }
  case Opcode::AShr:
    return wrap(intOp(0) >> (static_cast<uint64_t>(intOp(1)) & 63));
  case Opcode::FAdd:
    return M.getConstFloat(fltOp(0) + fltOp(1));
  case Opcode::FSub:
    return M.getConstFloat(fltOp(0) - fltOp(1));
  case Opcode::FMul:
    return M.getConstFloat(fltOp(0) * fltOp(1));
  case Opcode::FDiv:
    return M.getConstFloat(fltOp(1) == 0.0 ? 0.0 : fltOp(0) / fltOp(1));
  case Opcode::ICmp: {
    int64_t L = intOp(0), R = intOp(1);
    bool Out = false;
    switch (I.pred()) {
    case Pred::EQ:
      Out = L == R;
      break;
    case Pred::NE:
      Out = L != R;
      break;
    case Pred::LT:
      Out = L < R;
      break;
    case Pred::LE:
      Out = L <= R;
      break;
    case Pred::GT:
      Out = L > R;
      break;
    case Pred::GE:
      Out = L >= R;
      break;
    }
    return M.getConstInt(Type::I1, Out);
  }
  case Opcode::FCmp: {
    double L = fltOp(0), R = fltOp(1);
    bool Out = false;
    switch (I.pred()) {
    case Pred::EQ:
      Out = L == R;
      break;
    case Pred::NE:
      Out = L != R;
      break;
    case Pred::LT:
      Out = L < R;
      break;
    case Pred::LE:
      Out = L <= R;
      break;
    case Pred::GT:
      Out = L > R;
      break;
    case Pred::GE:
      Out = L >= R;
      break;
    }
    return M.getConstInt(Type::I1, Out);
  }
  case Opcode::Select:
    return cast<Constant>(I.operand(intOp(0) ? 1 : 2));
  case Opcode::Trunc:
    return wrap(static_cast<int32_t>(intOp(0)));
  case Opcode::ZExt: {
    uint64_t U = static_cast<uint64_t>(intOp(0));
    Type Src = I.operand(0)->type();
    if (Src == Type::I1)
      U &= 1;
    else if (Src == Type::I32)
      U &= 0xFFFFFFFFull;
    return wrap(static_cast<int64_t>(U));
  }
  case Opcode::SExt:
    return wrap(intOp(0)); // Stored canonically sign-extended already.
  case Opcode::SIToFP:
    return M.getConstFloat(static_cast<double>(intOp(0)));
  case Opcode::FPToSI: {
    double V = fltOp(0);
    if (!std::isfinite(V) || V > 9.2e18 || V < -9.2e18)
      V = 0.0;
    return M.getConstInt(Type::I64, static_cast<int64_t>(V));
  }
  default:
    return nullptr;
  }
}

Value *passes::simplifyInstruction(const Instruction &I, Module &M) {
  auto constOp = [&](size_t Idx) { return dyn_cast<Constant>(I.operand(Idx)); };

  switch (I.opcode()) {
  case Opcode::Add:
    if (const Constant *R = constOp(1); R && R->isZero())
      return I.operand(0);
    if (const Constant *L = constOp(0); L && L->isZero())
      return I.operand(1);
    return nullptr;
  case Opcode::Sub:
    if (const Constant *R = constOp(1); R && R->isZero())
      return I.operand(0);
    if (I.operand(0) == I.operand(1))
      return M.getConstInt(I.type(), 0);
    return nullptr;
  case Opcode::Mul: {
    const Constant *R = constOp(1);
    if (R && R->isOne())
      return I.operand(0);
    if (R && R->isZero())
      return M.getConstInt(I.type(), 0);
    const Constant *L = constOp(0);
    if (L && L->isOne())
      return I.operand(1);
    if (L && L->isZero())
      return M.getConstInt(I.type(), 0);
    return nullptr;
  }
  case Opcode::SDiv:
    if (const Constant *R = constOp(1); R && R->isOne())
      return I.operand(0);
    return nullptr;
  case Opcode::And:
    if (I.operand(0) == I.operand(1))
      return I.operand(0);
    if (const Constant *R = constOp(1); R && R->isZero())
      return M.getConstInt(I.type(), 0);
    if (const Constant *L = constOp(0); L && L->isZero())
      return M.getConstInt(I.type(), 0);
    return nullptr;
  case Opcode::Or:
    if (I.operand(0) == I.operand(1))
      return I.operand(0);
    if (const Constant *R = constOp(1); R && R->isZero())
      return I.operand(0);
    if (const Constant *L = constOp(0); L && L->isZero())
      return I.operand(1);
    return nullptr;
  case Opcode::Xor:
    if (I.operand(0) == I.operand(1))
      return M.getConstInt(I.type(), 0);
    if (const Constant *R = constOp(1); R && R->isZero())
      return I.operand(0);
    if (const Constant *L = constOp(0); L && L->isZero())
      return I.operand(1);
    return nullptr;
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
    if (const Constant *R = constOp(1); R && R->isZero())
      return I.operand(0);
    if (const Constant *L = constOp(0); L && L->isZero())
      return M.getConstInt(I.type(), 0);
    return nullptr;
  case Opcode::FAdd:
    // f + 0.0 == f only when -0.0 is not observable; our interpreter never
    // distinguishes signed zeros in output hashing, so allow it.
    if (const Constant *R = constOp(1);
        R && R->type() == Type::F64 && R->floatValue() == 0.0)
      return I.operand(0);
    return nullptr;
  case Opcode::FMul:
    if (const Constant *R = constOp(1);
        R && R->type() == Type::F64 && R->floatValue() == 1.0)
      return I.operand(0);
    return nullptr;
  case Opcode::ICmp:
    if (I.operand(0) == I.operand(1)) {
      bool Out = I.pred() == Pred::EQ || I.pred() == Pred::LE ||
                 I.pred() == Pred::GE;
      return M.getConstInt(Type::I1, Out);
    }
    return nullptr;
  case Opcode::Select:
    if (I.operand(1) == I.operand(2))
      return I.operand(1);
    if (const Constant *C = constOp(0))
      return I.operand(C->intValue() ? 1 : 2);
    return nullptr;
  case Opcode::Gep:
    if (const Constant *R = constOp(1); R && R->isZero())
      return I.operand(0);
    return nullptr;
  case Opcode::Phi: {
    // Single-entry phi or all-identical inputs.
    if (I.numIncoming() == 0)
      return nullptr;
    Value *First = I.incomingValue(0);
    for (unsigned K = 1; K < I.numIncoming(); ++K)
      if (I.incomingValue(K) != First &&
          I.incomingValue(K) != static_cast<const Value *>(&I))
        return nullptr;
    if (First == static_cast<const Value *>(&I))
      return nullptr; // Degenerate self-only phi.
    return First;
  }
  default:
    return nullptr;
  }
}

void passes::removePhiIncomingFor(BasicBlock &BB, BasicBlock *Pred) {
  for (const auto &I : BB.instructions()) {
    if (I->opcode() != Opcode::Phi)
      break;
    for (unsigned K = 0; K < I->numIncoming();) {
      if (I->incomingBlock(K) == Pred)
        I->removeIncoming(K);
      else
        ++K;
    }
  }
}

void passes::replacePhiIncomingBlock(BasicBlock &BB, BasicBlock *From,
                                     BasicBlock *To) {
  for (const auto &I : BB.instructions()) {
    if (I->opcode() != Opcode::Phi)
      break;
    for (unsigned K = 0; K < I->numIncoming(); ++K)
      if (I->incomingBlock(K) == From)
        I->setOperand(2 * K + 1, To);
  }
}

namespace {

/// The blocks of the non-empty function \p F reachable from its entry.
std::unordered_set<BasicBlock *> reachableBlocks(const Function &F) {
  std::unordered_set<BasicBlock *> Reachable;
  std::vector<BasicBlock *> Work{F.entry()};
  Reachable.insert(F.entry());
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    for (BasicBlock *Succ : BB->successors())
      if (Reachable.insert(Succ).second)
        Work.push_back(Succ);
  }
  return Reachable;
}

} // namespace

bool passes::hasUnreachableBlocks(const Function &F) {
  return !F.empty() && reachableBlocks(F).size() != F.numBlocks();
}

bool passes::removeUnreachableBlocks(Function &F) {
  if (F.empty())
    return false;
  std::unordered_set<BasicBlock *> Reachable = reachableBlocks(F);
  if (Reachable.size() == F.numBlocks())
    return false;

  // Collect doomed blocks, clean phi edges into survivors, then erase.
  std::vector<BasicBlock *> Doomed;
  for (const auto &BB : F.blocks())
    if (!Reachable.count(BB.get()))
      Doomed.push_back(BB.get());
  for (BasicBlock *Dead : Doomed)
    for (BasicBlock *Succ : Dead->successors())
      if (Reachable.count(Succ))
        removePhiIncomingFor(*Succ, Dead);
  for (BasicBlock *Dead : Doomed)
    F.eraseBlock(Dead);
  return true;
}

StableValueIds::StableValueIds(const Function &F) {
  uint64_t Next = 1;
  for (size_t A = 0; A < F.numArgs(); ++A)
    Ids[F.arg(A)] = Next++;
  for (const auto &BB : F.blocks()) {
    Ids[BB.get()] = Next++;
    for (const auto &I : BB->instructions())
      Ids[I.get()] = Next++;
  }
}

uint64_t StableValueIds::idOf(const Value *V) const {
  auto It = Ids.find(V);
  if (It != Ids.end())
    return It->second;
  // Constants / globals / function refs: hash by content, offset away from
  // the local-id range.
  if (const auto *C = dyn_cast<Constant>(V)) {
    uint64_t Bits = C->type() == Type::F64
                        ? std::bit_cast<uint64_t>(C->floatValue())
                        : static_cast<uint64_t>(C->intValue());
    return hashCombine(0xC0157A57ull + static_cast<int>(C->type()), Bits) |
           (1ull << 63);
  }
  if (const auto *G = dyn_cast<GlobalVariable>(V))
    return fnv1a(G->name()) | (1ull << 62);
  if (const auto *FR = dyn_cast<FunctionRef>(V))
    return fnv1a(FR->calleeName()) | (1ull << 61);
  return 0;
}

bool passes::isPowerOfTwo(const Constant &C, int &Log2Out) {
  if (!isIntegerType(C.type()))
    return false;
  int64_t V = C.intValue();
  if (V <= 0 || (V & (V - 1)) != 0)
    return false;
  Log2Out = std::countr_zero(static_cast<uint64_t>(V));
  return true;
}
