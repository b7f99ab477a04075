//===- passes/Scalar.cpp - Scalar transforms -------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Transforms.h"
#include "passes/Utils.h"

#include "ir/CFG.h"
#include "ir/UseTable.h"
#include "util/Hash.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

/// Replaces \p I (at index \p Idx in \p BB) with \p Replacement and erases
/// it. Helper shared by the folding passes.
void replaceAndErase(UseTable &Uses, BasicBlock &BB, size_t Idx,
                     Instruction *I, Value *Replacement) {
  Uses.replaceAllUsesWith(I, Replacement);
  Uses.drop(I);
  BB.erase(Idx);
}

/// True if \p Pred holds for some instruction of \p F.
template <typename PredT> bool anyInstruction(const Function &F, PredT Pred) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (Pred(*I))
        return true;
  return false;
}

/// Folds instructions whose operands are all constants.
class ConstFoldPass : public FunctionPass {
public:
  std::string name() const override { return "constfold"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    bool Changed = false;
    bool LocalChange = true;
    int Rounds = 0;
    while (LocalChange && Rounds++ < 16) {
      LocalChange = false;
      // Collect replacements for the whole round, substituting through the
      // map while folding so same-round chains collapse; then apply all
      // rewrites in a single O(n) scan instead of per-fold RAUW.
      std::unordered_map<Value *, Constant *> Rep;
      auto resolved = [&](Value *V) -> Value * {
        auto It = Rep.find(V);
        return It == Rep.end() ? V : It->second;
      };
      for (const auto &BB : F.blocks()) {
        for (const auto &InstPtr : BB->instructions()) {
          Instruction *Inst = InstPtr.get();
          Instruction Probe(Inst->opcode(), Inst->type());
          Probe.setPred(Inst->pred());
          Probe.setAllocaWords(Inst->allocaWords());
          for (Value *Op : Inst->operands())
            Probe.operands().push_back(resolved(Op));
          if (Constant *C = foldConstant(Probe, M))
            Rep.emplace(Inst, C);
        }
      }
      if (Rep.empty())
        break;
      F.forEachInstruction([&](BasicBlock &, Instruction &I) {
        for (size_t Op = 0; Op < I.numOperands(); ++Op)
          if (Value *New = resolved(I.operand(Op)); New != I.operand(Op))
            I.setOperand(Op, New);
      });
      for (const auto &BB : F.blocks())
        for (size_t I = BB->size(); I-- > 0;)
          if (Rep.count(BB->instructions()[I].get()))
            BB->erase(I);
      LocalChange = Changed = true;
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }
};

/// Applies algebraic identities (x+0, x*1, select c a a, ...).
class InstSimplifyPass : public FunctionPass {
public:
  std::string name() const override { return "instsimplify"; }

  bool mayChange(Module &M, const Function &F, AnalysisManager &) override {
    return anyInstruction(F, [&](const Instruction &I) {
      return simplifiable(I, M);
    });
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    UseTable Uses(F);
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      for (const auto &BB : F.blocks()) {
        for (size_t I = 0; I < BB->size(); ++I) {
          Instruction *Inst = BB->instructions()[I].get();
          if (Value *V = simplifiable(*Inst, M)) {
            replaceAndErase(Uses, *BB, I, Inst, V);
            --I;
            LocalChange = Changed = true;
          }
        }
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  /// What \p I simplifies to, or null. PhiSimplifyPass owns phi rewrites.
  static Value *simplifiable(const Instruction &I, Module &M) {
    return I.opcode() == Opcode::Phi ? nullptr : simplifyInstruction(I, M);
  }
};

/// Pattern-rewrites that create new, cheaper instructions:
///   (x op c1) op c2 -> x op (c1 op c2)  for associative op
///   mul x, 2^k      -> shl x, k
///   sub 0, x        -> handled as canonical neg (xor for ints)
///   zext(zext x)    -> single widening cast
/// Plus everything instsimplify/constfold do, applied opportunistically.
class InstCombinePass : public FunctionPass {
public:
  std::string name() const override { return "instcombine"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    UseTable Uses(F);
    bool Changed = false;
    bool LocalChange = true;
    int Rounds = 0;
    while (LocalChange && Rounds++ < 8) {
      LocalChange = false;
      for (const auto &BB : F.blocks()) {
        for (size_t I = 0; I < BB->size(); ++I) {
          Instruction *Inst = BB->instructions()[I].get();
          if (Constant *C = foldConstant(*Inst, M)) {
            replaceAndErase(Uses, *BB, I, Inst, C);
            --I;
            LocalChange = Changed = true;
            continue;
          }
          if (Inst->opcode() != Opcode::Phi) {
            if (Value *V = simplifyInstruction(*Inst, M)) {
              replaceAndErase(Uses, *BB, I, Inst, V);
              --I;
              LocalChange = Changed = true;
              continue;
            }
          }
          if (combine(*Inst, M, Uses)) {
            LocalChange = Changed = true;
          }
        }
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  /// In-place rewrites (operand changes only, no new instructions needed).
  bool combine(Instruction &I, Module &M, UseTable &Uses) {
    // Associative constant regrouping: (x op c1) op c2 => x op fold(c1,c2).
    if ((I.opcode() == Opcode::Add || I.opcode() == Opcode::Mul ||
         I.opcode() == Opcode::And || I.opcode() == Opcode::Or ||
         I.opcode() == Opcode::Xor)) {
      auto *C2 = dyn_cast<Constant>(I.operand(1));
      auto *Inner = dyn_cast<Instruction>(I.operand(0));
      if (C2 && Inner && Inner->opcode() == I.opcode() &&
          Inner->type() == I.type()) {
        if (auto *C1 = dyn_cast<Constant>(Inner->operand(1))) {
          int64_t A = C1->intValue(), B = C2->intValue();
          int64_t Folded;
          switch (I.opcode()) {
          case Opcode::Add:
            Folded = static_cast<int64_t>(static_cast<uint64_t>(A) +
                                          static_cast<uint64_t>(B));
            break;
          case Opcode::Mul:
            Folded = static_cast<int64_t>(static_cast<uint64_t>(A) *
                                          static_cast<uint64_t>(B));
            break;
          case Opcode::And:
            Folded = A & B;
            break;
          case Opcode::Or:
            Folded = A | B;
            break;
          default:
            Folded = A ^ B;
            break;
          }
          Uses.setOperand(I, 0, Inner->operand(0));
          Uses.setOperand(I, 1, M.getConstInt(I.type(), Folded));
          return true;
        }
      }
    }
    // Canonicalize constants to the RHS of commutative ops.
    if (I.isCommutative() && isa<Constant>(I.operand(0)) &&
        !isa<Constant>(I.operand(1))) {
      Value *Tmp = I.operand(0);
      Uses.setOperand(I, 0, I.operand(1));
      Uses.setOperand(I, 1, Tmp);
      return true;
    }
    return false;
  }
};

/// Canonicalizes commutative expressions: constants to the RHS and
/// operands in stable-id order, exposing CSE/GVN opportunities.
class ReassociatePass : public FunctionPass {
public:
  std::string name() const override { return "reassociate"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    StableValueIds Ids(F);
    bool Changed = false;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (!I.isCommutative() || I.numOperands() != 2)
        return;
      Value *L = I.operand(0), *R = I.operand(1);
      bool Swap = false;
      if (isa<Constant>(L) && !isa<Constant>(R))
        Swap = true;
      else if (!isa<Constant>(L) && !isa<Constant>(R) &&
               Ids.idOf(L) > Ids.idOf(R))
        Swap = true;
      if (Swap) {
        I.setOperand(0, R);
        I.setOperand(1, L);
        Changed = true;
      }
    });
    // Commutative operand swaps leave use counts, opcode histograms and
    // the CFG alone, but operand order feeds the Inst2vec statement and
    // ProGraML edge positions.
    return PassResult::make(Changed, PreservedAnalyses::allButLayout());
  }
};

/// Puts constants on the RHS of comparisons, flipping the predicate.
class CmpCanonicalizePass : public FunctionPass {
public:
  std::string name() const override { return "cmp-canonicalize"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    return anyInstruction(F, constantOnLeft);
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    bool Changed = false;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (!constantOnLeft(I))
        return;
      Value *L = I.operand(0);
      I.setOperand(0, I.operand(1));
      I.setOperand(1, L);
      switch (I.pred()) {
      case Pred::LT:
        I.setPred(Pred::GT);
        break;
      case Pred::LE:
        I.setPred(Pred::GE);
        break;
      case Pred::GT:
        I.setPred(Pred::LT);
        break;
      case Pred::GE:
        I.setPred(Pred::LE);
        break;
      case Pred::EQ:
      case Pred::NE:
        break;
      }
      Changed = true;
    });
    // Operand swap + predicate flip: no feature *count* observes
    // predicates, but the Inst2vec statement embeds both the predicate
    // and operand order, and ProGraML edge positions shift.
    return PassResult::make(Changed, PreservedAnalyses::allButLayout());
  }

private:
  /// True for a comparison of a constant with a non-constant.
  static bool constantOnLeft(const Instruction &I) {
    return (I.opcode() == Opcode::ICmp || I.opcode() == Opcode::FCmp) &&
           isa<Constant>(I.operand(0)) && !isa<Constant>(I.operand(1));
  }
};

/// Collapses shift-by-constant chains: (x shl c1) shl c2 -> x shl (c1+c2).
class ShiftCombinePass : public FunctionPass {
public:
  std::string name() const override { return "shift-combine"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    return anyInstruction(F, [](const Instruction &I) {
      return combinedShift(I) != nullptr;
    });
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    bool Changed = false;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      int64_t Total = 0;
      Instruction *Inner = combinedShift(I, &Total);
      if (!Inner)
        return;
      I.setOperand(0, Inner->operand(0));
      I.setOperand(1, M.getConstInt(I.type(), Total));
      Changed = true;
    });
    // Rewiring operands changes use counts (OneUseInstCount): features go.
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  /// The inner shift when \p I shifts it again by a constant, in range, so
  /// both fold into one shift by *\p Total; null otherwise.
  static Instruction *combinedShift(const Instruction &I,
                                    int64_t *Total = nullptr) {
    if (I.opcode() != Opcode::Shl && I.opcode() != Opcode::LShr &&
        I.opcode() != Opcode::AShr)
      return nullptr;
    auto *C2 = dyn_cast<Constant>(I.operand(1));
    auto *Inner = dyn_cast<Instruction>(I.operand(0));
    if (!C2 || !Inner || Inner->opcode() != I.opcode() ||
        Inner->type() != I.type())
      return nullptr;
    auto *C1 = dyn_cast<Constant>(Inner->operand(1));
    if (!C1)
      return nullptr;
    int64_t Sum = C1->intValue() + C2->intValue();
    int Width = integerBitWidth(I.type());
    // Out-of-range shifts keep their defined modulo semantics.
    if (C1->intValue() < 0 || C2->intValue() < 0 || Sum >= Width)
      return nullptr;
    if (Total)
      *Total = Sum;
    return Inner;
  }
};

/// Strength reduction: mul by power of two becomes a shift; mul by 2
/// becomes add x, x.
class StrengthReducePass : public FunctionPass {
public:
  std::string name() const override { return "strength-reduce"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    return anyInstruction(F, [](const Instruction &I) {
      return shiftAmount(I) != 0;
    });
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    UseTable Uses(F);
    // Collect first: rewriting replaces instructions, which would
    // invalidate an in-flight block iteration.
    std::vector<std::pair<Instruction *, int>> Rewrites;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (int Log2 = shiftAmount(I))
        Rewrites.emplace_back(&I, Log2);
    });
    for (auto &[I, Log2] : Rewrites)
      rewriteToShl(*I, M, Log2, Uses);
    return PassResult::make(!Rewrites.empty(), PreservedAnalyses::cfg());
  }

private:
  /// k when \p I multiplies by the constant 2^k with k > 0, else 0.
  static int shiftAmount(const Instruction &I) {
    if (I.opcode() != Opcode::Mul)
      return 0;
    auto *C = dyn_cast<Constant>(I.operand(1));
    int Log2 = 0;
    if (!C || !isPowerOfTwo(*C, Log2))
      return 0;
    return Log2;
  }

  static void rewriteToShl(Instruction &I, Module &M, int Log2,
                           UseTable &Uses) {
    // Mutate opcode via placement of a fresh instruction is not possible
    // without replacing; instead emulate by operand rewrite on a Shl
    // created in place. Opcode is immutable, so replace the instruction.
    BasicBlock *BB = I.parent();
    size_t Idx = BB->indexOf(&I);
    auto Shl = std::make_unique<Instruction>(
        Opcode::Shl, I.type(),
        std::vector<Value *>{I.operand(0), M.getConstInt(I.type(), Log2)});
    Shl->setName(I.name());
    Instruction *NewI = BB->insert(Idx, std::move(Shl));
    Uses.add(NewI);
    replaceAndErase(Uses, *BB, Idx + 1, &I, NewI);
  }
};

/// Sparse conditional constant propagation (simplified): constant-folds
/// through the CFG, rewrites constant conditional branches, and prunes
/// unreachable blocks.
class SccpPass : public FunctionPass {
public:
  std::string name() const override { return "sccp"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      // Fold everything foldable. The table lives for this phase only: the
      // branch rewrites and block deletions below do not patch it.
      UseTable Uses(F);
      for (const auto &BB : F.blocks()) {
        for (size_t I = 0; I < BB->size(); ++I) {
          Instruction *Inst = BB->instructions()[I].get();
          if (Constant *C = foldConstant(*Inst, M)) {
            replaceAndErase(Uses, *BB, I, Inst, C);
            --I;
            LocalChange = Changed = true;
          } else if (Inst->opcode() == Opcode::Phi) {
            if (Value *V = simplifyInstruction(*Inst, M)) {
              replaceAndErase(Uses, *BB, I, Inst, V);
              --I;
              LocalChange = Changed = true;
            }
          }
        }
      }
      // Rewrite condbr on constants.
      for (const auto &BB : F.blocks()) {
        Instruction *Term = BB->terminator();
        if (!Term || Term->opcode() != Opcode::CondBr)
          continue;
        auto *C = dyn_cast<Constant>(Term->operand(0));
        auto *TrueBB = cast<BasicBlock>(Term->operand(1));
        auto *FalseBB = cast<BasicBlock>(Term->operand(2));
        if (!C && TrueBB != FalseBB)
          continue;
        BasicBlock *Live = !C ? TrueBB : (C->intValue() ? TrueBB : FalseBB);
        BasicBlock *Dead = (Live == TrueBB) ? FalseBB : TrueBB;
        if (Dead != Live)
          removePhiIncomingFor(*Dead, BB.get());
        size_t TermIdx = BB->size() - 1;
        BB->erase(TermIdx);
        auto Br = std::make_unique<Instruction>(
            Opcode::Br, Type::Void, std::vector<Value *>{Live});
        BB->append(std::move(Br));
        LocalChange = Changed = true;
      }
      if (removeUnreachableBlocks(F))
        LocalChange = Changed = true;
    }
    return PassResult::make(Changed, PreservedAnalyses::none());
  }
};

/// Sinks pure single-use instructions into the successor that uses them.
class SinkPass : public FunctionPass {
public:
  std::string name() const override { return "sink"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    std::optional<PredecessorTable> Preds;
    UseTable Uses(F);
    for (const auto &BB : F.blocks()) {
      if (BB->successors().size() < 2)
        continue;
      for (const auto &I : BB->instructions())
        if (sinkTarget(F, *BB, *I, Uses, Preds))
          return true;
    }
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    std::optional<PredecessorTable> Preds; // Sinking moves no edge.
    // Sinking only moves instructions, so the table stays valid, and a
    // user's parent() is the block it sits in now.
    UseTable Uses(F);
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      if (BB->successors().size() < 2)
        continue; // Sinking only pays off past a branch.
      for (size_t I = BB->size(); I-- > 0;) {
        BasicBlock *UserBlock =
            sinkTarget(F, *BB, *BB->instructions()[I], Uses, Preds);
        if (!UserBlock)
          continue;
        std::unique_ptr<Instruction> Owned = BB->detach(I);
        Owned->setParent(UserBlock);
        UserBlock->insert(UserBlock->firstNonPhi(), std::move(Owned));
        Changed = true;
      }
    }
    // Moving instructions across blocks keeps the CFG but shifts the
    // per-block feature counts.
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  /// Where the pure \p Inst of \p BB sinks to: the block holding all its
  /// users, none of them a phi (phi uses live on edges), when that block
  /// is a successor of BB with BB as its only predecessor, so dominance is
  /// trivially preserved; null otherwise. \p Preds is built at the first
  /// such successor.
  static BasicBlock *sinkTarget(const Function &F, BasicBlock &BB,
                                const Instruction &Inst, UseTable &Uses,
                                std::optional<PredecessorTable> &Preds) {
    if (!Inst.isPure())
      return nullptr;
    BasicBlock *UserBlock = nullptr;
    for (Instruction *User : Uses.users(&Inst)) {
      if (User->opcode() == Opcode::Phi)
        return nullptr;
      if (!UserBlock)
        UserBlock = User->parent();
      else if (UserBlock != User->parent())
        return nullptr;
    }
    if (!UserBlock || UserBlock == &BB)
      return nullptr;
    std::vector<BasicBlock *> Succs = BB.successors();
    if (std::find(Succs.begin(), Succs.end(), UserBlock) == Succs.end())
      return nullptr;
    if (!Preds)
      Preds.emplace(F);
    return (*Preds)[UserBlock].size() == 1 ? UserBlock : nullptr;
  }
};

/// Local common subexpression elimination (within each block).
class LocalCsePass : public FunctionPass {
public:
  std::string name() const override { return "cse-local"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    bool Changed = false;
    StableValueIds Ids(F);
    UseTable Uses(F);
    for (const auto &BB : F.blocks()) {
      std::map<std::vector<uint64_t>, Instruction *> Seen;
      for (size_t I = 0; I < BB->size(); ++I) {
        Instruction *Inst = BB->instructions()[I].get();
        if (!Inst->isPure())
          continue;
        std::vector<uint64_t> Key = expressionKey(*Inst, Ids);
        auto [It, Inserted] = Seen.emplace(std::move(Key), Inst);
        if (!Inserted) {
          replaceAndErase(Uses, *BB, I, Inst, It->second);
          --I;
          Changed = true;
        }
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

  static std::vector<uint64_t> expressionKey(const Instruction &I,
                                             const StableValueIds &Ids) {
    std::vector<uint64_t> Key;
    Key.push_back(static_cast<uint64_t>(I.opcode()));
    Key.push_back(static_cast<uint64_t>(I.type()));
    Key.push_back(static_cast<uint64_t>(I.pred()));
    std::vector<uint64_t> Ops;
    for (const Value *Op : I.operands())
      Ops.push_back(Ids.idOf(Op));
    if (I.isCommutative() && Ops.size() == 2 && Ops[0] > Ops[1])
      std::swap(Ops[0], Ops[1]);
    Key.insert(Key.end(), Ops.begin(), Ops.end());
    return Key;
  }
};

/// Local dead store elimination: a store is dead if the same pointer value
/// is overwritten later in the block with no intervening load or call.
class LocalDsePass : public FunctionPass {
public:
  std::string name() const override { return "dse-local"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    for (const auto &BB : F.blocks())
      if (!deadStores(*BB).empty())
        return true;
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      std::vector<size_t> Dead = deadStores(*BB);
      for (size_t K = Dead.size(); K-- > 0;) {
        BB->erase(Dead[K]);
        Changed = true;
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  /// Indices, ascending, of the stores in \p BB that a later store to the
  /// same pointer overwrites with no load or call between.
  static std::vector<size_t> deadStores(const BasicBlock &BB) {
    // Track last pending store per exact pointer value.
    std::unordered_map<const Value *, size_t> Pending;
    std::vector<size_t> Dead;
    for (size_t I = 0; I < BB.size(); ++I) {
      const Instruction *Inst = BB.instructions()[I].get();
      if (Inst->opcode() == Opcode::Store) {
        const Value *Ptr = Inst->operand(1);
        auto It = Pending.find(Ptr);
        if (It != Pending.end())
          Dead.push_back(It->second);
        Pending[Ptr] = I;
        continue;
      }
      if (Inst->opcode() == Opcode::Load || Inst->opcode() == Opcode::Call)
        Pending.clear(); // Conservative: any load/call may observe.
    }
    std::sort(Dead.begin(), Dead.end());
    return Dead;
  }
};

/// Forwards stored values to subsequent loads of the same pointer within a
/// block (no intervening stores or calls).
class StoreForwardPass : public FunctionPass {
public:
  std::string name() const override { return "store-forward"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    for (const auto &BB : F.blocks()) {
      StoredValues Known;
      for (const auto &I : BB->instructions())
        if (forwardedValue(*I, Known))
          return true;
    }
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    bool Changed = false;
    UseTable Uses(F);
    for (const auto &BB : F.blocks()) {
      StoredValues Known;
      for (size_t I = 0; I < BB->size(); ++I) {
        Instruction *Inst = BB->instructions()[I].get();
        if (Value *V = forwardedValue(*Inst, Known)) {
          replaceAndErase(Uses, *BB, I, Inst, V);
          --I;
          Changed = true;
        }
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  /// Pointer -> the value a store earlier in the block left there.
  using StoredValues = std::unordered_map<const Value *, Value *>;

  /// Steps the block scan over \p Inst: returns the stored value a load
  /// \p Inst of the same pointer and type can use instead, else updates
  /// \p Known and returns null.
  static Value *forwardedValue(const Instruction &Inst, StoredValues &Known) {
    if (Inst.opcode() == Opcode::Store) {
      // Another store to a different pointer may alias: drop all except
      // the freshly stored one.
      Value *Stored = Inst.operand(0);
      const Value *Ptr = Inst.operand(1);
      Known.clear();
      Known[Ptr] = Stored;
      return nullptr;
    }
    if (Inst.opcode() == Opcode::Call) {
      Known.clear();
      return nullptr;
    }
    if (Inst.opcode() != Opcode::Load)
      return nullptr;
    auto It = Known.find(Inst.operand(0));
    return It != Known.end() && It->second->type() == Inst.type()
               ? It->second
               : nullptr;
  }
};

/// Reuses the result of an earlier identical load when no store/call
/// intervenes in the block.
class RedundantLoadElimPass : public FunctionPass {
public:
  std::string name() const override { return "redundant-load-elim"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    for (const auto &BB : F.blocks()) {
      EarlierLoads Loads;
      for (const auto &I : BB->instructions())
        if (earlierLoad(*I, Loads))
          return true;
    }
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    bool Changed = false;
    UseTable Uses(F);
    for (const auto &BB : F.blocks()) {
      EarlierLoads Loads;
      for (size_t I = 0; I < BB->size(); ++I) {
        Instruction *Inst = BB->instructions()[I].get();
        if (Instruction *Earlier = earlierLoad(*Inst, Loads)) {
          replaceAndErase(Uses, *BB, I, Inst, Earlier);
          --I;
          Changed = true;
        }
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  /// Pointer -> the load of it earlier in the block.
  using EarlierLoads = std::unordered_map<const Value *, Instruction *>;

  /// Steps the block scan over \p Inst: returns the earlier load a load
  /// \p Inst of the same pointer and type can reuse, else updates
  /// \p Loads and returns null.
  static Instruction *earlierLoad(Instruction &Inst, EarlierLoads &Loads) {
    if (Inst.opcode() == Opcode::Store || Inst.opcode() == Opcode::Call) {
      Loads.clear();
      return nullptr;
    }
    if (Inst.opcode() != Opcode::Load)
      return nullptr;
    auto It = Loads.find(Inst.operand(0));
    if (It != Loads.end() && It->second->type() == Inst.type())
      return It->second;
    Loads[Inst.operand(0)] = &Inst;
    return nullptr;
  }
};

/// Lowers select into a CFG diamond (branch + phi). Deliberately grows
/// code; real compilers do this when selects are unprofitable.
class LowerSelectPass : public FunctionPass {
public:
  std::string name() const override { return "lower-select"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &) override {
    return firstSelect(F).first != nullptr;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    // One select per invocation per function keeps growth bounded.
    auto [BB, I] = firstSelect(F);
    if (!BB)
      return PassResult::make(false, PreservedAnalyses::all());
    lower(F, BB, I);
    return PassResult::make(true, PreservedAnalyses::none());
  }

private:
  /// The block and index of the first select in \p F; a null block if
  /// there is none.
  static std::pair<BasicBlock *, size_t> firstSelect(const Function &F) {
    for (const auto &BB : F.blocks())
      for (size_t I = 0; I < BB->size(); ++I)
        if (BB->instructions()[I]->opcode() == Opcode::Select)
          return {BB.get(), I};
    return {nullptr, 0};
  }

  static void lower(Function &F, BasicBlock *BB, size_t SelIdx) {
    Instruction *Sel = BB->instructions()[SelIdx].get();
    Value *Cond = Sel->operand(0);
    Value *TVal = Sel->operand(1);
    Value *FVal = Sel->operand(2);

    BasicBlock *TailBB = F.createBlock(BB->name() + ".selcont");
    BasicBlock *TrueBB = F.createBlock(BB->name() + ".seltrue");
    BasicBlock *FalseBB = F.createBlock(BB->name() + ".selfalse");

    // Move everything after the select into the tail block.
    while (BB->size() > SelIdx + 1) {
      std::unique_ptr<Instruction> Moved = BB->detach(SelIdx + 1);
      Moved->setParent(TailBB);
      TailBB->append(std::move(Moved));
    }
    // Successor phis now see TailBB as the predecessor.
    for (BasicBlock *Succ : TailBB->successors())
      replacePhiIncomingBlock(*Succ, BB, TailBB);

    // Build the diamond.
    auto mkBr = [&](BasicBlock *From, BasicBlock *To) {
      auto Br = std::make_unique<Instruction>(
          Opcode::Br, Type::Void, std::vector<Value *>{To});
      From->append(std::move(Br));
    };
    mkBr(TrueBB, TailBB);
    mkBr(FalseBB, TailBB);

    auto Phi = std::make_unique<Instruction>(Opcode::Phi, Sel->type());
    Instruction *PhiI = TailBB->insert(0, std::move(Phi));
    PhiI->addIncoming(TVal, TrueBB);
    PhiI->addIncoming(FVal, FalseBB);
    // One replacement per run: the table is built for it alone.
    UseTable(F).replaceAllUsesWith(Sel, PhiI);

    // Replace the select with the conditional branch.
    BB->erase(SelIdx);
    auto CondBr = std::make_unique<Instruction>(
        Opcode::CondBr, Type::Void,
        std::vector<Value *>{Cond, TrueBB, FalseBB});
    BB->append(std::move(CondBr));
  }
};

/// Simplifies phi nodes: single-incoming and all-same-value phis collapse
/// to the underlying value.
class PhiSimplifyPass : public FunctionPass {
public:
  std::string name() const override { return "phi-simplify"; }

  bool mayChange(Module &M, const Function &F, AnalysisManager &) override {
    for (const auto &BB : F.blocks())
      for (size_t I = 0; I < BB->firstNonPhi(); ++I)
        if (simplifyInstruction(*BB->instructions()[I], M))
          return true;
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    UseTable Uses(F);
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      for (const auto &BB : F.blocks()) {
        for (size_t I = 0; I < BB->firstNonPhi(); ++I) {
          Instruction *Phi = BB->instructions()[I].get();
          if (Value *V = simplifyInstruction(*Phi, M)) {
            replaceAndErase(Uses, *BB, I, Phi, V);
            --I;
            LocalChange = Changed = true;
          }
        }
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }
};

} // namespace

std::unique_ptr<Pass> passes::createConstFoldPass() {
  return std::make_unique<ConstFoldPass>();
}
std::unique_ptr<Pass> passes::createInstSimplifyPass() {
  return std::make_unique<InstSimplifyPass>();
}
std::unique_ptr<Pass> passes::createInstCombinePass() {
  return std::make_unique<InstCombinePass>();
}
std::unique_ptr<Pass> passes::createReassociatePass() {
  return std::make_unique<ReassociatePass>();
}
std::unique_ptr<Pass> passes::createCmpCanonicalizePass() {
  return std::make_unique<CmpCanonicalizePass>();
}
std::unique_ptr<Pass> passes::createShiftCombinePass() {
  return std::make_unique<ShiftCombinePass>();
}
std::unique_ptr<Pass> passes::createStrengthReducePass() {
  return std::make_unique<StrengthReducePass>();
}
std::unique_ptr<Pass> passes::createSccpPass() {
  return std::make_unique<SccpPass>();
}
std::unique_ptr<Pass> passes::createSinkPass() {
  return std::make_unique<SinkPass>();
}
std::unique_ptr<Pass> passes::createLocalCsePass() {
  return std::make_unique<LocalCsePass>();
}
std::unique_ptr<Pass> passes::createLocalDsePass() {
  return std::make_unique<LocalDsePass>();
}
std::unique_ptr<Pass> passes::createStoreForwardPass() {
  return std::make_unique<StoreForwardPass>();
}
std::unique_ptr<Pass> passes::createRedundantLoadElimPass() {
  return std::make_unique<RedundantLoadElimPass>();
}
std::unique_ptr<Pass> passes::createLowerSelectPass() {
  return std::make_unique<LowerSelectPass>();
}
std::unique_ptr<Pass> passes::createPhiSimplifyPass() {
  return std::make_unique<PhiSimplifyPass>();
}
