//===- passes/Mem2Reg.cpp - Promote stack slots to SSA ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic SSA construction: promotes allocas whose only uses are loads and
/// stores into SSA registers, inserting phi nodes at iterated dominance
/// frontiers and renaming along the dominator tree. The programs emitted by
/// the benchmark generators are in "clang -O0" style (everything through
/// the stack), so this pass is the keystone first action, exactly as
/// -mem2reg is for LLVM.
///
/// All slots are renamed in one walk over the dominator tree with one value
/// stack per slot (Cytron et al.). Each promoted load's replacement is
/// recorded, and one sweep at the end rewrites operands through those
/// records, so the pass is linear in the function plus the phis it adds.
///
//===----------------------------------------------------------------------===//

#include "passes/Transforms.h"
#include "passes/Utils.h"

#include "ir/CFG.h"
#include "ir/Dominators.h"

#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

/// One alloca and, once it is known to be promotable, its renaming state.
struct Slot {
  bool Promotable = true;
  bool HasLoads = false;
  Type ValueTy = Type::Void;
  std::vector<unsigned> DefBlocks; ///< Blocks with a store, by table index.
  std::vector<Value *> Stack;      ///< Current values, innermost last.
  Value *Zero = nullptr;           ///< What a read before any write sees.
};

class Mem2RegPass : public FunctionPass {
public:
  std::string name() const override { return "mem2reg"; }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    // Unreachable code would leave phis without matching incoming edges.
    bool CfgChanged = removeUnreachableBlocks(F);
    if (CfgChanged)
      AM.invalidate(F, PreservedAnalyses::none());

    // Classify every alloca in one whole-function scan (per-alloca scans
    // would make the pass quadratic on big modules).
    std::vector<Slot> Slots;
    std::unordered_map<const Instruction *, unsigned> SlotOf;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (I.opcode() != Opcode::Alloca)
        return;
      SlotOf.emplace(&I, static_cast<unsigned>(Slots.size()));
      Slots.emplace_back().Promotable = I.allocaWords() == 1;
    });
    if (Slots.empty())
      return PassResult::make(CfgChanged, PreservedAnalyses::cfg());
    PredecessorTable Preds(F);
    F.forEachInstruction([&](BasicBlock &BB, Instruction &I) {
      for (size_t Op = 0; Op < I.numOperands(); ++Op) {
        auto *Def = dyn_cast<Instruction>(I.operand(Op));
        if (!Def || Def->opcode() != Opcode::Alloca)
          continue;
        Slot &S = Slots[SlotOf.at(Def)];
        Type Ty = Type::Void;
        if (I.opcode() == Opcode::Load && Op == 0) {
          Ty = I.type();
          S.HasLoads = true;
        } else if (I.opcode() == Opcode::Store && Op == 1) {
          Ty = I.operand(0)->type();
          unsigned Idx = Preds.index(&BB);
          if (S.DefBlocks.empty() || S.DefBlocks.back() != Idx)
            S.DefBlocks.push_back(Idx);
        } else {
          S.Promotable = false; // Address escapes.
          continue;
        }
        if (S.ValueTy == Type::Void)
          S.ValueTy = Ty;
        else if (S.ValueTy != Ty)
          S.Promotable = false;
      }
    });
    auto slotOf = [&](const Value *Ptr) -> Slot * {
      auto *Def = dyn_cast<Instruction>(Ptr);
      if (!Def || Def->opcode() != Opcode::Alloca)
        return nullptr;
      Slot &S = Slots[SlotOf.at(Def)];
      return S.Promotable ? &S : nullptr;
    };
    bool Promoted = false;
    for (const Slot &S : Slots)
      Promoted |= S.Promotable;
    if (!Promoted)
      return PassResult::make(CfgChanged, PreservedAnalyses::cfg());

    // Dominator-tree children and dominance frontiers (Cytron et al.), by
    // table index.
    const DominatorTree &DT = AM.domTree(F);
    const size_t NumBlocks = Preds.size();
    std::vector<std::vector<BasicBlock *>> DomChildren(NumBlocks);
    std::vector<std::vector<unsigned>> DF(NumBlocks);
    for (unsigned Idx = 0; Idx < NumBlocks; ++Idx) {
      BasicBlock *BB = Preds.block(Idx);
      BasicBlock *IDom = DT.idom(BB);
      if (IDom)
        DomChildren[Preds.index(IDom)].push_back(BB);
      if (Preds[BB].size() < 2)
        continue;
      for (BasicBlock *Runner : Preds[BB])
        for (; Runner && Runner != IDom; Runner = DT.idom(Runner))
          DF[Preds.index(Runner)].push_back(Idx);
    }

    // Phis at the iterated dominance frontier of each read slot's stores.
    // Each goes to the top of its block, so a block's phis end up in
    // reverse program order of their allocas.
    std::vector<std::vector<std::pair<Slot *, Instruction *>>> BlockPhis(
        NumBlocks);
    std::vector<unsigned> PhiMark(NumBlocks, ~0u);
    for (unsigned SlotIdx = 0; SlotIdx < Slots.size(); ++SlotIdx) {
      Slot &S = Slots[SlotIdx];
      if (!S.Promotable || !S.HasLoads)
        continue;
      std::vector<unsigned> Work = S.DefBlocks;
      while (!Work.empty()) {
        unsigned Idx = Work.back();
        Work.pop_back();
        for (unsigned Frontier : DF[Idx]) {
          if (PhiMark[Frontier] == SlotIdx)
            continue;
          PhiMark[Frontier] = SlotIdx;
          Work.push_back(Frontier);
          Instruction *Phi = Preds.block(Frontier)->insert(
              0, std::make_unique<Instruction>(Opcode::Phi, S.ValueTy));
          BlockPhis[Frontier].emplace_back(&S, Phi);
        }
      }
    }

    // Rename along the dominator tree. Reads before any write become zero
    // constants (defined behaviour, like our interpreter's zeroed
    // registers).
    Module &M = *F.parent();
    auto current = [&](Slot &S) -> Value * {
      if (!S.Stack.empty())
        return S.Stack.back();
      if (!S.Zero)
        S.Zero = S.ValueTy == Type::F64
                     ? static_cast<Value *>(M.getConstFloat(0.0))
                     : static_cast<Value *>(M.getConstInt(S.ValueTy, 0));
      return S.Zero;
    };
    std::unordered_map<const Instruction *, Value *> LoadValue;
    std::vector<std::pair<BasicBlock *, std::vector<size_t>>> Doomed;
    std::vector<Slot *> Pushed; // Undo log of every stack push.
    auto push = [&](Slot &S, Value *V) {
      S.Stack.push_back(V);
      Pushed.push_back(&S);
    };
    auto visit = [&](BasicBlock *BB) {
      for (auto &[S, Phi] : BlockPhis[Preds.index(BB)])
        push(*S, Phi);
      std::vector<size_t> Dead;
      for (size_t I = 0; I < BB->size(); ++I) {
        Instruction *Inst = BB->instructions()[I].get();
        Slot *S = nullptr;
        if (Inst->opcode() == Opcode::Load &&
            (S = slotOf(Inst->operand(0)))) {
          LoadValue.emplace(Inst, current(*S));
        } else if (Inst->opcode() == Opcode::Store &&
                   (S = slotOf(Inst->operand(1)))) {
          if (S->HasLoads)
            push(*S, Inst->operand(0));
        } else if (Inst->opcode() != Opcode::Alloca || !slotOf(Inst)) {
          continue;
        }
        Dead.push_back(I);
      }
      if (!Dead.empty())
        Doomed.emplace_back(BB, std::move(Dead));
      // A condbr naming one target twice is one CFG edge: one incoming.
      Instruction *Term = BB->terminator();
      for (unsigned K = 0; Term && K < Term->numSuccessors(); ++K) {
        BasicBlock *Succ = Term->successor(K);
        if (K == 1 && Succ == Term->successor(0))
          continue;
        for (auto &[S, Phi] : BlockPhis[Preds.index(Succ)])
          Phi->addIncoming(current(*S), BB);
      }
    };
    struct Frame {
      BasicBlock *BB;
      size_t ChildCursor;
      size_t UndoMark;
    };
    // Iterative DFS to avoid deep recursion on long CFG chains.
    std::vector<Frame> Stack{{F.entry(), 0, 0}};
    visit(F.entry());
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      const std::vector<BasicBlock *> &Children =
          DomChildren[Preds.index(Top.BB)];
      if (Top.ChildCursor < Children.size()) {
        BasicBlock *Child = Children[Top.ChildCursor++];
        Stack.push_back({Child, 0, Pushed.size()});
        visit(Child);
        continue;
      }
      for (; Pushed.size() > Top.UndoMark; Pushed.pop_back())
        Pushed.back()->Stack.pop_back();
      Stack.pop_back();
    }

    // One sweep points every use of a promoted load at its value. A stored
    // value or phi incoming recorded for a load may itself be a promoted
    // load, so replacements resolve through the records.
    auto resolve = [&](Value *V) {
      for (;;) {
        auto *Ld = dyn_cast<Instruction>(V);
        if (!Ld || Ld->opcode() != Opcode::Load)
          return V;
        auto It = LoadValue.find(Ld);
        if (It == LoadValue.end())
          return V;
        V = It->second;
      }
    };
    if (!LoadValue.empty())
      F.forEachInstruction([&](BasicBlock &, Instruction &I) {
        for (size_t Op = 0; Op < I.numOperands(); ++Op)
          if (Value *New = resolve(I.operand(Op)); New != I.operand(Op))
            I.setOperand(Op, New);
      });
    // Then the promoted loads, stores and allocas go, one pass per block.
    for (auto &[BB, Dead] : Doomed)
      for (size_t K = Dead.size(); K-- > 0;)
        BB->erase(Dead[K]);
    // Promotion inserts phis and deletes memory ops without CFG edits; the
    // up-front unreachable-block cleanup was the only CFG-changing part
    // and already invalidated, after which the tree was recomputed fresh —
    // so only features need the end-of-run invalidation either way.
    return PassResult::make(true, PreservedAnalyses::cfg());
  }
};

} // namespace

std::unique_ptr<Pass> passes::createMem2RegPass() {
  return std::make_unique<Mem2RegPass>();
}
