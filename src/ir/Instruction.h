//===- ir/Instruction.h - IR instructions -----------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction: an operation inside a BasicBlock. Operands are raw Value
/// pointers; ownership of instructions belongs to their block. Phi nodes
/// store operands as interleaved [value, block] pairs. Comparison
/// instructions carry a predicate; alloca carries its size in words.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_INSTRUCTION_H
#define COMPILER_GYM_IR_INSTRUCTION_H

#include "ir/Value.h"

#include <vector>

namespace compiler_gym {
namespace ir {

class BasicBlock;
class Function;
class Module;

/// Every operation the mini-IR supports. Kept in one flat enum so feature
/// extractors (InstCount / Autophase) can index count vectors by opcode.
enum class Opcode {
  // Integer arithmetic (i32/i64).
  Add,
  Sub,
  Mul,
  SDiv,
  SRem,
  // Bitwise (i1/i32/i64).
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  // Float arithmetic (f64).
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Comparisons: result i1; predicate in pred().
  ICmp,
  FCmp,
  // Memory.
  Alloca, ///< Stack allocation; size in words in allocaWords().
  Load,   ///< Load word at ptr operand; result type from instruction type.
  Store,  ///< operands: [value, ptr].
  Gep,    ///< Pointer arithmetic: operands [ptr, i64 index] -> ptr.
  // Control flow (terminators).
  Br,     ///< operands: [destBlock].
  CondBr, ///< operands: [i1 cond, trueBlock, falseBlock].
  Ret,    ///< operands: [] or [value].
  Unreachable,
  // Other.
  Call,   ///< operands: [callee(FunctionRef), args...].
  Phi,    ///< operands: [v0, bb0, v1, bb1, ...].
  Select, ///< operands: [i1 cond, trueVal, falseVal].
  // Casts.
  Trunc,  ///< i64 -> i32.
  ZExt,   ///< i1/i32 -> i32/i64 zero extend.
  SExt,   ///< i1/i32 -> i32/i64 sign extend.
  SIToFP, ///< i32/i64 -> f64.
  FPToSI, ///< f64 -> i64.
  PtrToInt, ///< ptr -> i64.
  IntToPtr, ///< i64 -> ptr.
};

/// Number of opcodes (for fixed-size count vectors).
constexpr int NumOpcodes = static_cast<int>(Opcode::IntToPtr) + 1;

/// Returns the canonical mnemonic ("add", "icmp", ...).
const char *opcodeName(Opcode Op);

/// Parses a mnemonic; returns false if unknown.
bool opcodeFromName(const std::string &Name, Opcode &Out);

/// Comparison predicates shared by ICmp (signed) and FCmp (ordered).
enum class Pred { EQ, NE, LT, LE, GT, GE };

const char *predName(Pred P);
bool predFromName(const std::string &Name, Pred &Out);

/// An SSA instruction. The instruction's Value type is its result type
/// (Void for stores/branches/etc.).
class Instruction : public Value {
public:
  Instruction(Opcode Op, Type ResultTy, std::vector<Value *> Operands = {})
      : Value(ValueKind::Instruction, ResultTy), Op(Op),
        Operands(std::move(Operands)) {}

  Opcode opcode() const { return Op; }

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  size_t numOperands() const { return Operands.size(); }
  Value *operand(size_t I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(size_t I, Value *V) {
    assert(I < Operands.size() && "operand index out of range");
    Operands[I] = V;
  }
  std::vector<Value *> &operands() { return Operands; }
  const std::vector<Value *> &operands() const { return Operands; }

  /// Comparison predicate (ICmp/FCmp only).
  Pred pred() const { return Predicate; }
  void setPred(Pred P) { Predicate = P; }

  /// Alloca size in 64-bit words (Alloca only).
  uint32_t allocaWords() const { return AllocaWords; }
  void setAllocaWords(uint32_t W) { AllocaWords = W; }

  /// Phi helpers; operands are [v0, bb0, v1, bb1, ...].
  unsigned numIncoming() const {
    assert(Op == Opcode::Phi && "numIncoming() on non-phi");
    return static_cast<unsigned>(Operands.size() / 2);
  }
  Value *incomingValue(unsigned I) const { return operand(2 * I); }
  BasicBlock *incomingBlock(unsigned I) const;
  void addIncoming(Value *V, BasicBlock *BB);
  /// Removes the i-th incoming pair.
  void removeIncoming(unsigned I);

  /// Call helpers; operand 0 is the callee (a name-based FunctionRef).
  /// Resolution requires the enclosing module: refs are symbolic so a
  /// copy-on-write copy of the callee in one fork never retargets call
  /// sites in functions still shared with sibling modules.
  Function *calledFunction(const Module &M) const;
  /// The callee's name without resolving it.
  const std::string &calleeName() const;
  unsigned numCallArgs() const {
    assert(Op == Opcode::Call && "numCallArgs() on non-call");
    return static_cast<unsigned>(Operands.size() - 1);
  }
  Value *callArg(unsigned I) const { return operand(I + 1); }

  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret ||
           Op == Opcode::Unreachable;
  }
  bool isBinaryOp() const {
    return Op >= Opcode::Add && Op <= Opcode::FDiv;
  }
  bool isIntArith() const { return Op >= Opcode::Add && Op <= Opcode::SRem; }
  bool isBitwise() const { return Op >= Opcode::And && Op <= Opcode::AShr; }
  bool isFloatArith() const { return Op >= Opcode::FAdd && Op <= Opcode::FDiv; }
  bool isCast() const { return Op >= Opcode::Trunc && Op <= Opcode::IntToPtr; }
  bool isCommutative() const {
    return Op == Opcode::Add || Op == Opcode::Mul || Op == Opcode::And ||
           Op == Opcode::Or || Op == Opcode::Xor || Op == Opcode::FAdd ||
           Op == Opcode::FMul;
  }

  /// True if the instruction writes memory or has control effects — such
  /// instructions must not be removed by DCE even when unused.
  bool hasSideEffects() const {
    return Op == Opcode::Store || Op == Opcode::Call || isTerminator();
  }

  /// True if the result depends only on the operand values (safe to CSE /
  /// hoist). Loads are excluded (memory may change); calls are excluded
  /// (may have effects).
  bool isPure() const {
    return !hasSideEffects() && Op != Opcode::Load && Op != Opcode::Alloca &&
           Op != Opcode::Phi;
  }

  /// Branch successor list (terminators only; empty for Ret/Unreachable).
  std::vector<BasicBlock *> successors() const;
  /// successors().size() without building the list.
  unsigned numSuccessors() const {
    return Op == Opcode::Br ? 1 : Op == Opcode::CondBr ? 2 : 0;
  }
  /// successors()[I] without building the list.
  BasicBlock *successor(unsigned I) const;
  /// Rewrites every successor edge equal to \p From to point at \p To.
  void replaceSuccessor(BasicBlock *From, BasicBlock *To);

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Instruction;
  }

private:
  Opcode Op;
  std::vector<Value *> Operands;
  BasicBlock *Parent = nullptr;
  Pred Predicate = Pred::EQ;
  uint32_t AllocaWords = 1;
};

/// A call-target operand: a symbolic (name-based) reference so the operand
/// list stays homogeneous (Value*). Refs are immutable and uniqued in the
/// module's shared pool; they carry no Function pointer so that function
/// payloads can be shared and copy-on-write replaced across forked modules
/// without rewriting call sites. Resolve with Module::findFunction or
/// Instruction::calledFunction(M).
class FunctionRef : public Value {
public:
  explicit FunctionRef(std::string CalleeName)
      : Value(ValueKind::FunctionRef, Type::FunctionTy),
        CalleeName(std::move(CalleeName)) {}

  const std::string &calleeName() const { return CalleeName; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::FunctionRef;
  }

private:
  const std::string CalleeName;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_INSTRUCTION_H
