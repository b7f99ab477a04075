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
//===----------------------------------------------------------------------===//

#include "passes/Transforms.h"
#include "passes/Utils.h"

#include "ir/CFG.h"
#include "ir/Dominators.h"

#include <unordered_map>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

class Mem2RegPass : public FunctionPass {
public:
  std::string name() const override { return "mem2reg"; }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    // Unreachable code would leave phis without matching incoming edges.
    bool CfgChanged = removeUnreachableBlocks(F);
    if (CfgChanged)
      AM.invalidate(F, PreservedAnalyses::none());

    const DominatorTree &DT = AM.domTree(F);
    std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>>
        DomChildren;
    for (const auto &BB : F.blocks())
      if (BasicBlock *Parent = DT.idom(BB.get()))
        DomChildren[Parent].push_back(BB.get());

    // Dominance frontiers (Cytron et al.).
    PredecessorTable PredTable(F);
    std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>> DF;
    for (const auto &BBPtr : F.blocks()) {
      BasicBlock *BB = BBPtr.get();
      const std::vector<BasicBlock *> &Preds = PredTable[BB];
      if (Preds.size() < 2)
        continue;
      BasicBlock *IDom = DT.idom(BB);
      for (BasicBlock *Pred : Preds) {
        BasicBlock *Runner = Pred;
        while (Runner && Runner != IDom) {
          DF[Runner].push_back(BB);
          Runner = DT.idom(Runner);
        }
      }
    }

    // Classify every alloca in one whole-function scan (per-alloca scans
    // would make the pass quadratic on big modules).
    struct SlotInfo {
      bool Promotable = true;
      Type ValueTy = Type::Void;
      std::vector<Instruction *> Loads;
      std::vector<Instruction *> Stores;
      std::unordered_set<BasicBlock *> DefBlocks;
    };
    std::unordered_map<Instruction *, SlotInfo> Slots;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (I.opcode() == Opcode::Alloca)
        Slots[&I].Promotable = I.allocaWords() == 1;
    });
    F.forEachInstruction([&](BasicBlock &BB, Instruction &I) {
      for (size_t Op = 0; Op < I.numOperands(); ++Op) {
        auto *Def = dyn_cast<Instruction>(I.operand(Op));
        if (!Def)
          continue;
        auto It = Slots.find(Def);
        if (It == Slots.end())
          continue;
        SlotInfo &Slot = It->second;
        if (I.opcode() == Opcode::Load && Op == 0) {
          if (Slot.ValueTy == Type::Void)
            Slot.ValueTy = I.type();
          else if (Slot.ValueTy != I.type())
            Slot.Promotable = false;
          Slot.Loads.push_back(&I);
        } else if (I.opcode() == Opcode::Store && Op == 1) {
          if (Slot.ValueTy == Type::Void)
            Slot.ValueTy = I.operand(0)->type();
          else if (Slot.ValueTy != I.operand(0)->type())
            Slot.Promotable = false;
          Slot.Stores.push_back(&I);
          Slot.DefBlocks.insert(&BB);
        } else {
          Slot.Promotable = false; // Address escapes.
        }
      }
    });

    // Deterministic promotion order: program order of the allocas.
    std::vector<Instruction *> Order;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      auto It = Slots.find(&I);
      if (It != Slots.end() && It->second.Promotable)
        Order.push_back(&I);
    });
    bool Promoted = false;
    for (Instruction *Alloca : Order) {
      SlotInfo &Slot = Slots.at(Alloca);
      Promoted |= promote(F, *Alloca, Slot.ValueTy, Slot.Loads, Slot.Stores,
                          Slot.DefBlocks, DT, DomChildren, DF);
    }
    // Promotion inserts phis and deletes memory ops without CFG edits; the
    // up-front unreachable-block cleanup was the only CFG-changing part
    // and already invalidated, after which the tree was recomputed fresh —
    // so only features need the end-of-run invalidation either way.
    return PassResult::make(CfgChanged || Promoted, PreservedAnalyses::cfg());
  }

private:

  bool promote(
      Function &F, Instruction &Alloca, Type ValueTy,
      const std::vector<Instruction *> &Loads,
      const std::vector<Instruction *> &Stores,
      const std::unordered_set<BasicBlock *> &DefBlocks,
      const DominatorTree &DT,
      std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>>
          &DomChildren,
      std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>> &DF) {
    Module &M = *F.parent();

    if (Loads.empty()) {
      // Store-only slot: drop the stores and the alloca.
      for (Instruction *St : Stores)
        St->parent()->erase(St->parent()->indexOf(St));
      Alloca.parent()->erase(Alloca.parent()->indexOf(&Alloca));
      return true;
    }
    assert(ValueTy != Type::Void && "promotable slot with no value type");

    // Iterated dominance frontier -> phi placement.
    std::unordered_set<BasicBlock *> PhiBlocks;
    std::vector<BasicBlock *> Work(DefBlocks.begin(), DefBlocks.end());
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      auto It = DF.find(BB);
      if (It == DF.end())
        continue;
      for (BasicBlock *Frontier : It->second) {
        if (!PhiBlocks.insert(Frontier).second)
          continue;
        Work.push_back(Frontier);
      }
    }

    std::unordered_map<BasicBlock *, Instruction *> InsertedPhis;
    for (BasicBlock *BB : PhiBlocks) {
      auto Phi = std::make_unique<Instruction>(Opcode::Phi, ValueTy);
      InsertedPhis[BB] = BB->insert(0, std::move(Phi));
    }

    // Rename along the dominator tree. "Undef" reads-before-writes become
    // zero constants (defined behaviour, like our interpreter's zeroed
    // registers).
    Value *Zero = ValueTy == Type::F64
                      ? static_cast<Value *>(M.getConstFloat(0.0))
                      : static_cast<Value *>(M.getConstInt(ValueTy, 0));
    std::unordered_set<const Instruction *> LoadSet(Loads.begin(),
                                                    Loads.end());
    std::unordered_set<const Instruction *> StoreSet(Stores.begin(),
                                                     Stores.end());

    struct StackFrame {
      BasicBlock *BB;
      Value *Incoming;
      size_t ChildCursor = 0;
      Value *OutValue = nullptr;
    };

    // Iterative DFS to avoid deep recursion on long CFG chains.
    std::vector<StackFrame> Stack;
    Stack.push_back({F.entry(), Zero, 0, nullptr});
    // Pre-pass per block happens when the frame is first visited
    // (ChildCursor == 0 sentinel via OutValue == nullptr).
    while (!Stack.empty()) {
      StackFrame &Frame = Stack.back();
      BasicBlock *BB = Frame.BB;
      if (!Frame.OutValue) {
        Value *Current = Frame.Incoming;
        auto PhiIt = InsertedPhis.find(BB);
        if (PhiIt != InsertedPhis.end())
          Current = PhiIt->second;
        for (size_t I = 0; I < BB->size(); ++I) {
          Instruction *Inst = BB->instructions()[I].get();
          if (LoadSet.count(Inst)) {
            F.replaceAllUsesWith(Inst, Current);
            BB->erase(I);
            --I;
          } else if (StoreSet.count(Inst)) {
            Current = Inst->operand(0);
            BB->erase(I);
            --I;
          }
        }
        // Feed successors' inserted phis (dedupe: a condbr may name the
        // same target twice but contributes a single CFG edge).
        std::unordered_set<BasicBlock *> SeenSuccs;
        for (BasicBlock *Succ : BB->successors()) {
          if (!SeenSuccs.insert(Succ).second)
            continue;
          auto SuccPhi = InsertedPhis.find(Succ);
          if (SuccPhi != InsertedPhis.end())
            SuccPhi->second->addIncoming(Current, BB);
        }
        Frame.OutValue = Current;
      }
      auto ChildIt = DomChildren.find(BB);
      if (ChildIt != DomChildren.end() &&
          Frame.ChildCursor < ChildIt->second.size()) {
        BasicBlock *Child = ChildIt->second[Frame.ChildCursor++];
        Stack.push_back({Child, Frame.OutValue, 0, nullptr});
        continue;
      }
      Stack.pop_back();
    }

    // Phi blocks that were never reached by any incoming edge (e.g. phis
    // in blocks whose preds were all visited before placement) are fully
    // populated by the successor hook above. Some inserted phis may be
    // trivially redundant; leave them to phi-simplify/instcombine.
    Alloca.parent()->erase(Alloca.parent()->indexOf(&Alloca));
    return true;
  }
};

} // namespace

std::unique_ptr<Pass> passes::createMem2RegPass() {
  return std::make_unique<Mem2RegPass>();
}
