//===- ir/Verifier.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/CFG.h"
#include "ir/Dominators.h"

#include <algorithm>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::ir;

namespace {

Status fail(const Function &F, const std::string &Message) {
  return internalError("verifier: @" + F.name() + ": " + Message);
}

Status checkOperandTypes(const Function &F, const Instruction &I,
                         const Module *M) {
  auto want = [&](size_t Idx, Type Ty) -> Status {
    if (I.numOperands() <= Idx)
      return fail(F, std::string(opcodeName(I.opcode())) +
                         ": missing operand " + std::to_string(Idx));
    if (I.operand(Idx)->type() != Ty)
      return fail(F, std::string(opcodeName(I.opcode())) + ": operand " +
                         std::to_string(Idx) + " has type " +
                         typeName(I.operand(Idx)->type()) + ", expected " +
                         typeName(Ty));
    return Status::ok();
  };
  auto wantCount = [&](size_t N) -> Status {
    if (I.numOperands() != N)
      return fail(F, std::string(opcodeName(I.opcode())) + ": expected " +
                         std::to_string(N) + " operands, got " +
                         std::to_string(I.numOperands()));
    return Status::ok();
  };

  switch (I.opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::SRem:
    CG_RETURN_IF_ERROR(wantCount(2));
    if (I.type() != Type::I32 && I.type() != Type::I64)
      return fail(F, "integer arithmetic must be i32/i64");
    CG_RETURN_IF_ERROR(want(0, I.type()));
    return want(1, I.type());
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
    CG_RETURN_IF_ERROR(wantCount(2));
    if (!isIntegerType(I.type()))
      return fail(F, "bitwise op must be integer-typed");
    CG_RETURN_IF_ERROR(want(0, I.type()));
    return want(1, I.type());
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    CG_RETURN_IF_ERROR(wantCount(2));
    if (I.type() != Type::F64)
      return fail(F, "float arithmetic must be f64");
    CG_RETURN_IF_ERROR(want(0, Type::F64));
    return want(1, Type::F64);
  case Opcode::ICmp:
    CG_RETURN_IF_ERROR(wantCount(2));
    if (I.type() != Type::I1)
      return fail(F, "icmp result must be i1");
    if (!isIntegerType(I.operand(0)->type()) &&
        I.operand(0)->type() != Type::Ptr)
      return fail(F, "icmp operands must be integer or ptr");
    if (I.operand(0)->type() != I.operand(1)->type())
      return fail(F, "icmp operand types differ");
    return Status::ok();
  case Opcode::FCmp:
    CG_RETURN_IF_ERROR(wantCount(2));
    if (I.type() != Type::I1)
      return fail(F, "fcmp result must be i1");
    CG_RETURN_IF_ERROR(want(0, Type::F64));
    return want(1, Type::F64);
  case Opcode::Alloca:
    CG_RETURN_IF_ERROR(wantCount(0));
    if (I.type() != Type::Ptr)
      return fail(F, "alloca result must be ptr");
    if (I.allocaWords() == 0)
      return fail(F, "alloca of zero words");
    return Status::ok();
  case Opcode::Load:
    CG_RETURN_IF_ERROR(wantCount(1));
    if (!isFirstClassType(I.type()))
      return fail(F, "load of non-first-class type");
    return want(0, Type::Ptr);
  case Opcode::Store:
    CG_RETURN_IF_ERROR(wantCount(2));
    if (!isFirstClassType(I.operand(0)->type()))
      return fail(F, "store of non-first-class value");
    return want(1, Type::Ptr);
  case Opcode::Gep:
    CG_RETURN_IF_ERROR(wantCount(2));
    CG_RETURN_IF_ERROR(want(0, Type::Ptr));
    return want(1, Type::I64);
  case Opcode::Br:
    CG_RETURN_IF_ERROR(wantCount(1));
    return want(0, Type::Label);
  case Opcode::CondBr:
    CG_RETURN_IF_ERROR(wantCount(3));
    CG_RETURN_IF_ERROR(want(0, Type::I1));
    CG_RETURN_IF_ERROR(want(1, Type::Label));
    return want(2, Type::Label);
  case Opcode::Ret:
    if (F.returnType() == Type::Void)
      return wantCount(0);
    CG_RETURN_IF_ERROR(wantCount(1));
    return want(0, F.returnType());
  case Opcode::Unreachable:
    return wantCount(0);
  case Opcode::Call: {
    if (I.numOperands() < 1 || !isa<FunctionRef>(I.operand(0)))
      return fail(F, "call operand 0 must be a function reference");
    if (!M)
      return Status::ok(); // Symbolic callee: unresolvable without a module.
    const Function *Callee = I.calledFunction(*M);
    if (!Callee)
      return fail(F, "call to unknown function @" + I.calleeName());
    if (I.numCallArgs() != Callee->numArgs())
      return fail(F, "call to @" + Callee->name() + " with " +
                         std::to_string(I.numCallArgs()) + " args, expected " +
                         std::to_string(Callee->numArgs()));
    for (unsigned A = 0; A < I.numCallArgs(); ++A)
      if (I.callArg(A)->type() != Callee->arg(A)->type())
        return fail(F, "call argument " + std::to_string(A) +
                           " type mismatch");
    if (I.type() != Callee->returnType())
      return fail(F, "call result type differs from callee return type");
    return Status::ok();
  }
  case Opcode::Phi: {
    if (I.numOperands() % 2 != 0)
      return fail(F, "phi with dangling operand");
    if (!isFirstClassType(I.type()))
      return fail(F, "phi of non-first-class type");
    for (unsigned K = 0; K < I.numIncoming(); ++K) {
      if (I.incomingValue(K)->type() != I.type())
        return fail(F, "phi incoming value type mismatch");
      if (!isa<BasicBlock>(I.operand(2 * K + 1)))
        return fail(F, "phi incoming block operand is not a block");
    }
    return Status::ok();
  }
  case Opcode::Select:
    CG_RETURN_IF_ERROR(wantCount(3));
    CG_RETURN_IF_ERROR(want(0, Type::I1));
    if (I.operand(1)->type() != I.type() || I.operand(2)->type() != I.type())
      return fail(F, "select arm type mismatch");
    return Status::ok();
  case Opcode::Trunc:
    CG_RETURN_IF_ERROR(wantCount(1));
    CG_RETURN_IF_ERROR(want(0, Type::I64));
    if (I.type() != Type::I32)
      return fail(F, "trunc must produce i32");
    return Status::ok();
  case Opcode::ZExt:
  case Opcode::SExt: {
    CG_RETURN_IF_ERROR(wantCount(1));
    Type Src = I.operand(0)->type();
    if (!isIntegerType(Src) || !isIntegerType(I.type()) ||
        integerBitWidth(Src) >= integerBitWidth(I.type()))
      return fail(F, "ext must widen an integer");
    return Status::ok();
  }
  case Opcode::SIToFP:
    CG_RETURN_IF_ERROR(wantCount(1));
    if (!isIntegerType(I.operand(0)->type()) || I.type() != Type::F64)
      return fail(F, "sitofp must be int -> f64");
    return Status::ok();
  case Opcode::FPToSI:
    CG_RETURN_IF_ERROR(wantCount(1));
    CG_RETURN_IF_ERROR(want(0, Type::F64));
    if (I.type() != Type::I64)
      return fail(F, "fptosi must produce i64");
    return Status::ok();
  case Opcode::PtrToInt:
    CG_RETURN_IF_ERROR(wantCount(1));
    CG_RETURN_IF_ERROR(want(0, Type::Ptr));
    if (I.type() != Type::I64)
      return fail(F, "ptrtoint must produce i64");
    return Status::ok();
  case Opcode::IntToPtr:
    CG_RETURN_IF_ERROR(wantCount(1));
    CG_RETURN_IF_ERROR(want(0, Type::I64));
    if (I.type() != Type::Ptr)
      return fail(F, "inttoptr must produce ptr");
    return Status::ok();
  }
  return Status::ok();
}

} // namespace

Status ir::verifyFunction(const Function &F, const Module *M) {
  if (F.empty())
    return fail(F, "function has no blocks");

  // Structure: every block has exactly one terminator, at the end; phis
  // lead their block.
  for (const auto &BB : F.blocks()) {
    if (BB->empty())
      return fail(F, "empty block '" + BB->name() + "'");
    for (size_t I = 0; I < BB->size(); ++I) {
      const Instruction *Inst = BB->instructions()[I].get();
      if (Inst->isTerminator() && I + 1 != BB->size())
        return fail(F, "terminator not at end of block '" + BB->name() + "'");
      if (Inst->opcode() == Opcode::Phi && I >= BB->firstNonPhi())
        return fail(F, "phi after non-phi in block '" + BB->name() + "'");
      if (Inst->parent() != BB.get())
        return fail(F, "instruction parent link broken");
    }
    if (!BB->terminator())
      return fail(F, "block '" + BB->name() + "' missing terminator");
  }

  // Types.
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      CG_RETURN_IF_ERROR(checkOperandTypes(F, *I, M));

  DominatorTree DT(F);
  PredecessorTable PredTable(F);

  // Phi inputs exactly cover predecessors (for reachable blocks).
  for (const auto &BB : F.blocks()) {
    if (!DT.isReachable(BB.get()))
      continue;
    const std::vector<BasicBlock *> &Preds = PredTable[BB.get()];
    for (const auto &I : BB->instructions()) {
      if (I->opcode() != Opcode::Phi)
        break;
      if (I->numIncoming() != Preds.size())
        return fail(F, "phi in '" + BB->name() + "' has " +
                           std::to_string(I->numIncoming()) +
                           " incoming, block has " +
                           std::to_string(Preds.size()) + " preds");
      for (unsigned K = 0; K < I->numIncoming(); ++K) {
        BasicBlock *In = I->incomingBlock(K);
        if (std::find(Preds.begin(), Preds.end(), In) == Preds.end())
          return fail(F, "phi incoming block '" + In->name() +
                             "' is not a predecessor of '" + BB->name() + "'");
      }
      // No duplicate incoming blocks.
      std::unordered_set<const BasicBlock *> Seen;
      for (unsigned K = 0; K < I->numIncoming(); ++K)
        if (!Seen.insert(I->incomingBlock(K)).second)
          return fail(F, "phi has duplicate incoming block");
    }
  }

  // SSA dominance: each instruction operand must be defined in a block that
  // dominates the use (same-block: defined earlier). Phi uses are checked
  // against the incoming edge.
  std::unordered_map<const Instruction *, size_t> InstIndex;
  for (const auto &BB : F.blocks())
    for (size_t I = 0; I < BB->size(); ++I)
      InstIndex[BB->instructions()[I].get()] = I;

  for (const auto &BB : F.blocks()) {
    if (!DT.isReachable(BB.get()))
      continue;
    for (size_t Idx = 0; Idx < BB->size(); ++Idx) {
      const Instruction *I = BB->instructions()[Idx].get();
      if (I->opcode() == Opcode::Phi) {
        for (unsigned K = 0; K < I->numIncoming(); ++K) {
          const auto *Def = dyn_cast<Instruction>(I->incomingValue(K));
          if (!Def)
            continue;
          if (!DT.dominates(Def->parent(), I->incomingBlock(K)))
            return fail(F, "phi input does not dominate incoming edge");
        }
        continue;
      }
      for (const Value *Op : I->operands()) {
        const auto *Def = dyn_cast<Instruction>(Op);
        if (!Def)
          continue;
        const BasicBlock *DefBB = Def->parent();
        if (!DefBB)
          return fail(F, "operand refers to detached instruction");
        if (DefBB == BB.get()) {
          if (InstIndex.at(Def) >= Idx)
            return fail(F, "use of '" + Def->name() +
                               "' before definition in block '" + BB->name() +
                               "'");
        } else if (!DT.dominates(DefBB, BB.get())) {
          return fail(F, "operand definition does not dominate use");
        }
      }
    }
  }
  return Status::ok();
}

Status ir::verifyModule(const Module &M) {
  for (const auto &F : M.functions())
    CG_RETURN_IF_ERROR(verifyFunction(*F, &M));
  return Status::ok();
}
