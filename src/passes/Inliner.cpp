//===- passes/Inliner.cpp - Function inlining ------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Threshold-based function inlining. The threshold is the callee's
/// instruction count; multiple thresholds are registered as separate
/// actions (inline<25>, inline<100>, ...), mirroring how inlining
/// aggressiveness is a tunable knob in the paper's GCC/LLVM spaces.
///
//===----------------------------------------------------------------------===//

#include "passes/Transforms.h"
#include "passes/Utils.h"

#include "ir/UseTable.h"

#include <unordered_map>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

class InlinerPass : public Pass {
public:
  explicit InlinerPass(unsigned SizeThreshold) : Threshold(SizeThreshold) {}

  std::string name() const override {
    return "inline<" + std::to_string(Threshold) + ">";
  }

  PassResult run(Module &M, AnalysisManager &AM) override {
    // Per-caller: collect this caller's call sites up front (inlining
    // appends blocks but call sites found later inside inlined bodies are
    // not revisited this run — one level per action keeps growth under the
    // agent's control), then mutate. Callees are only read, so a shared
    // caller payload is COW-detached before its first inline and the
    // sites rescanned in the copy.
    bool Changed = false;
    for (size_t Idx = 0; Idx < M.functions().size(); ++Idx) {
      Function *Caller = M.functions()[Idx].get();
      std::vector<Instruction *> Sites = inlinableSites(M, *Caller);
      if (Sites.empty())
        continue;
      if (M.isFunctionShared(Idx)) {
        const Function *Old = M.unshareFunction(Idx);
        Caller = M.functions()[Idx].get();
        AM.cowDetached(Old, Caller);
        Sites = inlinableSites(M, *Caller);
        countCowCopy(CowOutcome::Changed);
      }
      UseTable Uses(*Caller); // Built at the first call value replaced.
      for (Instruction *Call : Sites) {
        // The call's parent may have been split by an earlier inline in
        // the same block; always use the current parent.
        inlineSite(M, *Caller, Call->parent(), Call, Uses);
      }
      // Only callers mutate; callees and bystanders keep their analyses.
      M.functionChanged(Idx);
      AM.invalidate(*Caller, PreservedAnalyses::none());
      Changed = true;
    }
    // Each caller was invalidated above.
    return PassResult::make(Changed, PreservedAnalyses::all());
  }

private:
  std::vector<Instruction *> inlinableSites(const Module &M,
                                            Function &Caller) const {
    std::vector<Instruction *> Sites;
    // One verdict per callee: shouldInline() walks the callee's body.
    std::unordered_map<const Function *, bool> Verdicts;
    Caller.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (I.opcode() != Opcode::Call)
        return;
      const Function *Callee = I.calledFunction(M);
      if (!Callee)
        return;
      auto [It, Inserted] = Verdicts.emplace(Callee, false);
      if (Inserted)
        It->second = shouldInline(Caller, *Callee);
      if (It->second)
        Sites.push_back(&I);
    });
    return Sites;
  }

  bool shouldInline(const Function &Caller, const Function &Callee) const {
    if (Caller.name() == Callee.name() || Callee.empty() ||
        Callee.isNoInline())
      return false;
    if (Callee.instructionCount() > Threshold)
      return false;
    // Directly recursive callees never finish inlining; skip them.
    bool Recursive = false;
    Callee.forEachInstruction([&](BasicBlock &, Instruction &I) {
      if (I.opcode() == Opcode::Call && I.calleeName() == Callee.name())
        Recursive = true;
    });
    return !Recursive;
  }

  void inlineSite(Module &M, Function &Caller, BasicBlock *BB,
                  Instruction *Call, UseTable &Uses) {
    Function *Callee = M.findFunction(Call->calleeName());
    size_t CallIdx = BB->indexOf(Call);

    // 1. Split: move everything after the call into a continuation block.
    BasicBlock *Cont = Caller.createBlock(BB->name() + ".inlcont");
    while (BB->size() > CallIdx + 1) {
      std::unique_ptr<Instruction> Moved = BB->detach(CallIdx + 1);
      Moved->setParent(Cont);
      Cont->append(std::move(Moved));
    }
    for (BasicBlock *Succ : Cont->successors())
      replacePhiIncomingBlock(*Succ, BB, Cont);

    // 2. Clone the callee body with argument/value remapping.
    std::unordered_map<const Value *, Value *> Map;
    for (size_t A = 0; A < Callee->numArgs(); ++A)
      Map[Callee->arg(A)] = Call->callArg(static_cast<unsigned>(A));
    std::vector<BasicBlock *> NewBlocks;
    for (const auto &CB : Callee->blocks()) {
      BasicBlock *NB =
          Caller.createBlock(Callee->name() + "." + CB->name() + ".inl");
      Map[CB.get()] = NB;
      NewBlocks.push_back(NB);
    }
    size_t BlockIdx = 0;
    for (const auto &CB : Callee->blocks()) {
      BasicBlock *NB = NewBlocks[BlockIdx++];
      for (const auto &I : CB->instructions()) {
        auto Clone = std::make_unique<Instruction>(I->opcode(), I->type());
        Clone->setPred(I->pred());
        Clone->setAllocaWords(I->allocaWords());
        Clone->setName(I->name());
        Map[I.get()] = NB->append(std::move(Clone));
      }
    }
    BlockIdx = 0;
    for (const auto &CB : Callee->blocks()) {
      BasicBlock *NB = NewBlocks[BlockIdx++];
      for (size_t I = 0; I < CB->size(); ++I) {
        Instruction *NewI = NB->instructions()[I].get();
        for (Value *Op : CB->instructions()[I]->operands()) {
          auto It = Map.find(Op);
          NewI->operands().push_back(It == Map.end() ? Op : It->second);
        }
        Uses.add(NewI);
      }
    }

    // 3. Rewrite cloned returns into branches to the continuation.
    std::vector<std::pair<Value *, BasicBlock *>> Returns;
    for (BasicBlock *NB : NewBlocks) {
      Instruction *Term = NB->terminator();
      if (!Term || Term->opcode() != Opcode::Ret)
        continue;
      Value *RetVal = Term->numOperands() ? Term->operand(0) : nullptr;
      Uses.drop(Term);
      NB->erase(NB->size() - 1);
      auto Br = std::make_unique<Instruction>(Opcode::Br, Type::Void,
                                              std::vector<Value *>{Cont});
      NB->append(std::move(Br));
      Returns.emplace_back(RetVal, NB);
    }

    // 4. Replace the call's value with a phi over the return values. If
    // the callee never returns, the continuation is unreachable and any
    // use of the call value is dead; substitute zero.
    if (Call->type() != Type::Void) {
      if (!Returns.empty()) {
        auto Phi = std::make_unique<Instruction>(Opcode::Phi, Call->type());
        Instruction *PhiI = Cont->insert(0, std::move(Phi));
        for (auto &[V, NB] : Returns)
          PhiI->addIncoming(V, NB);
        Uses.add(PhiI);
        Uses.replaceAllUsesWith(Call, PhiI);
      } else if (Uses.hasUses(Call)) {
        Value *Zero = Call->type() == Type::F64
                          ? static_cast<Value *>(M.getConstFloat(0.0))
                          : static_cast<Value *>(
                                M.getConstInt(Call->type() == Type::Ptr
                                                  ? Type::I64
                                                  : Call->type(),
                                              0));
        // Ptr-typed zero needs an inttoptr; simplest safe stand-in is an
        // unreachable-guarded null via constant 0 through the int type.
        if (Call->type() == Type::Ptr) {
          auto Cast = std::make_unique<Instruction>(
              Opcode::IntToPtr, Type::Ptr, std::vector<Value *>{Zero});
          Zero = Cont->insert(0, std::move(Cast));
        }
        Uses.replaceAllUsesWith(Call, Zero);
      }
    }

    // 5. Replace the call instruction with a branch to the cloned entry.
    BasicBlock *ClonedEntry = NewBlocks.front();
    Uses.drop(Call);
    BB->erase(CallIdx);
    auto Br = std::make_unique<Instruction>(
        Opcode::Br, Type::Void, std::vector<Value *>{ClonedEntry});
    BB->append(std::move(Br));
    // A callee with no reachable return (infinite loop / unreachable) may
    // leave the continuation block orphaned; give it a terminator if the
    // original block's terminator moved there, which it always did, so
    // nothing to do. If Cont ended up empty (call was the terminator
    // predecessor-wise), that cannot happen: calls are never terminators.
  }

  unsigned Threshold;
};

} // namespace

std::unique_ptr<Pass> passes::createInlinerPass(unsigned SizeThreshold) {
  return std::make_unique<InlinerPass>(SizeThreshold);
}
