//===- passes/Cleanup.cpp - DCE-family and structural passes ---*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Transforms.h"
#include "passes/Utils.h"

#include <unordered_map>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

/// Removes pure instructions with no uses, iterating to a fixpoint.
class DcePass : public FunctionPass {
public:
  std::string name() const override { return "dce"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    // Worklist formulation: one use-count scan, then transitive removal by
    // decrementing operand counts as instructions die. O(n) total.
    auto Uses = F.computeUseCounts();
    std::vector<Instruction *> Dead;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (!I.hasSideEffects() && !I.isTerminator() && !Uses.count(&I))
        Dead.push_back(&I);
    });
    std::unordered_set<Instruction *> Doomed(Dead.begin(), Dead.end());
    while (!Dead.empty()) {
      Instruction *I = Dead.back();
      Dead.pop_back();
      for (Value *Op : I->operands()) {
        auto It = Uses.find(Op);
        if (It == Uses.end() || --It->second > 0)
          continue;
        auto *Def = dyn_cast<Instruction>(Op);
        if (Def && !Def->hasSideEffects() && !Def->isTerminator() &&
            Doomed.insert(Def).second)
          Dead.push_back(Def);
      }
    }
    for (const auto &BB : F.blocks())
      for (size_t I = BB->size(); I-- > 0;)
        if (Doomed.count(BB->instructions()[I].get()))
          BB->erase(I);
    // Only erases non-terminator instructions: CFG analyses survive.
    return PassResult::make(!Doomed.empty(), PreservedAnalyses::cfg());
  }
};

/// Mark-and-sweep DCE: roots are side-effecting instructions and
/// terminators; everything not transitively reachable through operands is
/// swept. Unlike DcePass this removes cyclic dead phi webs in one shot.
class AdcePass : public FunctionPass {
public:
  std::string name() const override { return "adce"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    std::unordered_set<const Instruction *> Live;
    std::vector<const Instruction *> Work;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (I.hasSideEffects() || I.isTerminator())
        if (Live.insert(&I).second)
          Work.push_back(&I);
    });
    while (!Work.empty()) {
      const Instruction *I = Work.back();
      Work.pop_back();
      for (const Value *Op : I->operands())
        if (const auto *Def = dyn_cast<Instruction>(Op))
          if (Live.insert(Def).second)
            Work.push_back(Def);
    }
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      for (size_t I = BB->size(); I-- > 0;) {
        Instruction *Inst = BB->instructions()[I].get();
        if (!Live.count(Inst)) {
          BB->erase(I);
          Changed = true;
        }
      }
    }
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }
};

/// Removes functions and globals with no references (except entry points).
class GlobalDcePass : public Pass {
public:
  std::string name() const override { return "global-dce"; }

  PassResult run(Module &M, AnalysisManager &AM) override {
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      std::unordered_set<std::string> CalledFns;
      std::unordered_set<const GlobalVariable *> UsedGlobals;
      for (const auto &F : M.functions()) {
        F->forEachInstruction([&](BasicBlock &, Instruction &I) {
          for (const Value *Op : I.operands()) {
            if (const auto *FR = dyn_cast<FunctionRef>(Op))
              CalledFns.insert(FR->calleeName());
            else if (const auto *G = dyn_cast<GlobalVariable>(Op))
              UsedGlobals.insert(G);
          }
        });
      }
      std::vector<Function *> DeadFns;
      for (const auto &F : M.functions())
        if (F->name() != "main" && !F->isNoInline() && !CalledFns.count(F->name()))
          DeadFns.push_back(F.get());
      for (Function *F : DeadFns) {
        AM.functionErased(F);
        M.eraseFunction(F);
        Changed = LocalChange = true;
      }
      // Globals: erasing shifts interpreter addresses of later globals but
      // only when the global is never referenced, so behaviour of reads and
      // writes is unaffected; the output hash covers referenced memory via
      // the same layout for original and optimized modules only when
      // layouts match — so we keep dead globals (size win would be in
      // .data, which the paper's code-size rewards do not count).
      (void)UsedGlobals;
    }
    // Surviving functions are untouched; erased ones were reported above,
    // which also marks the module-level observations stale.
    return PassResult::make(Changed, PreservedAnalyses::all());
  }
};

/// Strips local value names. No semantic change; mirrors LLVM's
/// -strip-names utility pass (an action with ~zero reward, which teaches
/// agents that some actions are useless).
class StripNamesPass : public FunctionPass {
public:
  std::string name() const override { return "strip-names"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    bool Changed = false;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (!I.name().empty()) {
        I.setName("");
        Changed = true;
      }
    });
    // Renaming is invisible to every analysis (the printed form and hash
    // still change; those are tracked by the changed bit, not by PA).
    return PassResult::make(Changed, PreservedAnalyses::all());
  }
};

/// Unifies multiple return sites into one exit block (LLVM's
/// -mergereturn / UnifyFunctionExitNodes).
class MergeReturnPass : public FunctionPass {
public:
  std::string name() const override { return "mergereturn"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    std::vector<BasicBlock *> RetBlocks;
    for (const auto &BB : F.blocks()) {
      Instruction *Term = BB->terminator();
      if (Term && Term->opcode() == Opcode::Ret)
        RetBlocks.push_back(BB.get());
    }
    if (RetBlocks.size() < 2)
      return PassResult::make(false, PreservedAnalyses::all());

    BasicBlock *Exit = F.createBlock("unified_exit");
    Instruction *RetPhi = nullptr;
    if (F.returnType() != Type::Void) {
      auto Phi = std::make_unique<Instruction>(Opcode::Phi, F.returnType());
      RetPhi = Exit->append(std::move(Phi));
    }
    auto Ret = std::make_unique<Instruction>(Opcode::Ret, Type::Void);
    if (RetPhi)
      Ret->operands().push_back(RetPhi);
    Exit->append(std::move(Ret));

    for (BasicBlock *BB : RetBlocks) {
      Instruction *OldRet = BB->terminator();
      if (RetPhi)
        RetPhi->addIncoming(OldRet->operand(0), BB);
      BB->erase(BB->size() - 1);
      auto Br = std::make_unique<Instruction>(
          Opcode::Br, Type::Void, std::vector<Value *>{Exit});
      BB->append(std::move(Br));
    }
    return PassResult::make(true, PreservedAnalyses::none());
  }
};

/// Deletes blocks unreachable from the entry.
class UnreachableBlockElimPass : public FunctionPass {
public:
  std::string name() const override { return "unreachable-elim"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    // Unreachable blocks are invisible to both CFG analyses: the CHK
    // walk never reaches them (no Rpo/Idom entries) and natural loops
    // only arise from reachable back edges. Erasing them preserves the
    // relative order of the surviving blocks, so cached dominator trees
    // and loop sets verify bit-for-bit against a recomputation.
    return PassResult::make(
        removeUnreachableBlocks(F),
        PreservedAnalyses::none().preserve(AK_DomTree | AK_Loops));
  }
};

/// Demotes phi nodes to stack slots (the inverse of mem2reg; LLVM's
/// -reg2mem). Grows the program — a deliberately "negative" action.
class Reg2MemPass : public FunctionPass {
public:
  std::string name() const override { return "reg2mem"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    // Collect phis first; we mutate blocks while demoting.
    std::vector<Instruction *> Phis;
    F.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (I.opcode() == Opcode::Phi)
        Phis.push_back(&I);
    });
    if (Phis.empty())
      return PassResult::make(false, PreservedAnalyses::all());

    BasicBlock *Entry = F.entry();
    std::unordered_map<const Value *, Instruction *> LoadOf;
    LoadOf.reserve(Phis.size());
    for (Instruction *Phi : Phis) {
      BasicBlock *BB = Phi->parent();
      // Slot in the entry block.
      auto AllocaI =
          std::make_unique<Instruction>(Opcode::Alloca, Type::Ptr);
      AllocaI->setAllocaWords(1);
      Instruction *Slot = Entry->insert(Entry->firstNonPhi(),
                                        std::move(AllocaI));

      // Store each incoming value at the end of its predecessor. A value
      // that is itself a phi is rewritten to that phi's load below.
      for (unsigned K = 0; K < Phi->numIncoming(); ++K) {
        BasicBlock *Pred = Phi->incomingBlock(K);
        auto St = std::make_unique<Instruction>(
            Opcode::Store, Type::Void,
            std::vector<Value *>{Phi->incomingValue(K), Slot});
        Pred->insert(Pred->size() - 1, std::move(St));
      }

      // Load at the start of the phi's block, after its phis: each load
      // goes in front of the loads of the phis demoted before it.
      auto Ld = std::make_unique<Instruction>(
          Opcode::Load, Phi->type(), std::vector<Value *>{Slot});
      LoadOf[Phi] = BB->insert(BB->firstNonPhi(), std::move(Ld));
    }
    // One sweep replaces every use of a phi with its load, then the phis,
    // which lead their blocks, go.
    for (const auto &BB : F.blocks()) {
      size_t NumPhis = BB->firstNonPhi();
      for (size_t I = NumPhis; I < BB->size(); ++I) {
        Instruction *Inst = BB->instructions()[I].get();
        for (size_t Op = 0; Op < Inst->numOperands(); ++Op) {
          auto It = LoadOf.find(Inst->operand(Op));
          if (It != LoadOf.end())
            Inst->setOperand(Op, It->second);
        }
      }
      while (NumPhis > 0)
        BB->erase(--NumPhis);
    }
    // Inserts allocas/stores/loads and drops phis without touching the
    // block graph.
    return PassResult::make(true, PreservedAnalyses::cfg());
  }
};

} // namespace

std::unique_ptr<Pass> passes::createDcePass() {
  return std::make_unique<DcePass>();
}
std::unique_ptr<Pass> passes::createAdcePass() {
  return std::make_unique<AdcePass>();
}
std::unique_ptr<Pass> passes::createGlobalDcePass() {
  return std::make_unique<GlobalDcePass>();
}
std::unique_ptr<Pass> passes::createStripNamesPass() {
  return std::make_unique<StripNamesPass>();
}
std::unique_ptr<Pass> passes::createMergeReturnPass() {
  return std::make_unique<MergeReturnPass>();
}
std::unique_ptr<Pass> passes::createUnreachableBlockElimPass() {
  return std::make_unique<UnreachableBlockElimPass>();
}
std::unique_ptr<Pass> passes::createReg2MemPass() {
  return std::make_unique<Reg2MemPass>();
}
