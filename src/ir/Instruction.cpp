//===- ir/Instruction.cpp -------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Instruction.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Module.h"

#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::ir;

const char *ir::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::SRem:
    return "srem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::LShr:
    return "lshr";
  case Opcode::AShr:
    return "ashr";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::Gep:
    return "gep";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Ret:
    return "ret";
  case Opcode::Unreachable:
    return "unreachable";
  case Opcode::Call:
    return "call";
  case Opcode::Phi:
    return "phi";
  case Opcode::Select:
    return "select";
  case Opcode::Trunc:
    return "trunc";
  case Opcode::ZExt:
    return "zext";
  case Opcode::SExt:
    return "sext";
  case Opcode::SIToFP:
    return "sitofp";
  case Opcode::FPToSI:
    return "fptosi";
  case Opcode::PtrToInt:
    return "ptrtoint";
  case Opcode::IntToPtr:
    return "inttoptr";
  }
  return "?";
}

bool ir::opcodeFromName(const std::string &Name, Opcode &Out) {
  static const std::unordered_map<std::string, Opcode> Table = [] {
    std::unordered_map<std::string, Opcode> T;
    for (int I = 0; I < NumOpcodes; ++I) {
      Opcode Op = static_cast<Opcode>(I);
      T.emplace(opcodeName(Op), Op);
    }
    return T;
  }();
  auto It = Table.find(Name);
  if (It == Table.end())
    return false;
  Out = It->second;
  return true;
}

const char *ir::predName(Pred P) {
  switch (P) {
  case Pred::EQ:
    return "eq";
  case Pred::NE:
    return "ne";
  case Pred::LT:
    return "lt";
  case Pred::LE:
    return "le";
  case Pred::GT:
    return "gt";
  case Pred::GE:
    return "ge";
  }
  return "?";
}

bool ir::predFromName(const std::string &Name, Pred &Out) {
  if (Name == "eq")
    Out = Pred::EQ;
  else if (Name == "ne")
    Out = Pred::NE;
  else if (Name == "lt")
    Out = Pred::LT;
  else if (Name == "le")
    Out = Pred::LE;
  else if (Name == "gt")
    Out = Pred::GT;
  else if (Name == "ge")
    Out = Pred::GE;
  else
    return false;
  return true;
}

BasicBlock *Instruction::incomingBlock(unsigned I) const {
  return cast<BasicBlock>(operand(2 * I + 1));
}

void Instruction::addIncoming(Value *V, BasicBlock *BB) {
  assert(Op == Opcode::Phi && "addIncoming() on non-phi");
  Operands.push_back(V);
  Operands.push_back(BB);
}

void Instruction::removeIncoming(unsigned I) {
  assert(Op == Opcode::Phi && "removeIncoming() on non-phi");
  assert(2 * I + 1 < Operands.size() && "incoming index out of range");
  Operands.erase(Operands.begin() + 2 * I, Operands.begin() + 2 * I + 2);
}

Function *Instruction::calledFunction(const Module &M) const {
  assert(Op == Opcode::Call && "calledFunction() on non-call");
  return M.findFunction(cast<FunctionRef>(operand(0))->calleeName());
}

const std::string &Instruction::calleeName() const {
  assert(Op == Opcode::Call && "calleeName() on non-call");
  return cast<FunctionRef>(operand(0))->calleeName();
}

std::vector<BasicBlock *> Instruction::successors() const {
  switch (Op) {
  case Opcode::Br:
    return {cast<BasicBlock>(operand(0))};
  case Opcode::CondBr:
    return {cast<BasicBlock>(operand(1)), cast<BasicBlock>(operand(2))};
  default:
    return {};
  }
}

BasicBlock *Instruction::successor(unsigned I) const {
  assert(I < numSuccessors() && "successor index out of range");
  return cast<BasicBlock>(operand(Op == Opcode::Br ? 0 : I + 1));
}

void Instruction::replaceSuccessor(BasicBlock *From, BasicBlock *To) {
  switch (Op) {
  case Opcode::Br:
    if (operand(0) == From)
      setOperand(0, To);
    return;
  case Opcode::CondBr:
    if (operand(1) == From)
      setOperand(1, To);
    if (operand(2) == From)
      setOperand(2, To);
    return;
  default:
    return;
  }
}
