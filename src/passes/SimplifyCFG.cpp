//===- passes/SimplifyCFG.cpp - CFG simplification --------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Transforms.h"
#include "passes/Utils.h"

#include "ir/CFG.h"
#include "ir/Dominators.h"
#include "ir/UseTable.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

/// Folds condbr with constant or duplicate-target conditions into br.
bool foldBranches(Function &F, Module &M) {
  bool Changed = false;
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
    BB->erase(BB->size() - 1);
    auto Br = std::make_unique<Instruction>(Opcode::Br, Type::Void,
                                            std::vector<Value *>{Live});
    BB->append(std::move(Br));
    Changed = true;
  }
  (void)M;
  return Changed;
}

/// Merges a block into its unique successor when that successor has a
/// unique predecessor (LLVM's "merge block into predecessor").
bool mergeLinearChains(Function &F) {
  if (F.numBlocks() < 2)
    return false;
  PredecessorTable Preds(F);
  UseTable Uses(F); // Built at the first phi collapsed.
  bool Changed = false;
  // A merge changes no other block's predecessor count, so every block
  // before the merged one stays unmergeable: the scan resumes at the
  // merged block rather than restarting.
  for (size_t I = 0; I < F.numBlocks();) {
    BasicBlock *BB = F.blocks()[I].get();
    Instruction *Term = BB->terminator();
    auto *Succ = Term && Term->opcode() == Opcode::Br
                     ? cast<BasicBlock>(Term->operand(0))
                     : nullptr;
    if (!Succ || Succ == BB || Succ == F.entry() ||
        Preds[Succ].size() != 1 || Preds[Succ][0] != BB) {
      ++I;
      continue;
    }
    // Collapse Succ's phis (single incoming) to their value.
    while (Succ->firstNonPhi() > 0) {
      Instruction *Phi = Succ->instructions()[0].get();
      Value *Incoming = Phi->numIncoming() >= 1 ? Phi->incomingValue(0)
                                                : nullptr;
      if (!Incoming)
        break;
      Uses.replaceAllUsesWith(Phi, Incoming);
      Uses.drop(Phi);
      Succ->erase(0);
    }
    // Drop BB's terminator, splice Succ's instructions into BB.
    BB->erase(BB->size() - 1);
    while (!Succ->empty()) {
      std::unique_ptr<Instruction> Moved = Succ->detach(0);
      Moved->setParent(BB);
      BB->append(std::move(Moved));
    }
    // Phis downstream now see BB as the predecessor.
    for (BasicBlock *After : BB->successors()) {
      replacePhiIncomingBlock(*After, Succ, BB);
      Preds.removeEdge(Succ, After);
      Preds.addEdge(BB, After);
    }
    if (Preds.index(Succ) < Preds.index(BB))
      --I; // Erasing Succ shifts BB down one position.
    F.eraseBlock(Succ);
    Changed = true;
  }
  return Changed;
}

/// Bypasses trampoline blocks that contain only an unconditional branch.
bool removeTrampolines(Function &F) {
  std::optional<PredecessorTable> Table; // Built at the first trampoline.
  bool Changed = false;
  bool LocalChange = true;
  while (LocalChange) {
    LocalChange = false;
    for (const auto &BBPtr : F.blocks()) {
      BasicBlock *BB = BBPtr.get();
      if (BB == F.entry() || BB->size() != 1)
        continue;
      Instruction *Term = BB->terminator();
      if (!Term || Term->opcode() != Opcode::Br)
        continue;
      auto *Target = cast<BasicBlock>(Term->operand(0));
      if (Target == BB)
        continue;
      if (!Table)
        Table.emplace(F);
      const std::vector<BasicBlock *> &Preds = (*Table)[BB];
      if (Preds.empty())
        continue; // Unreachable; let unreachable-elim handle it.
      // Redirecting a pred that already branches to Target would create a
      // duplicate edge; with phis in Target the incoming values could
      // conflict, so bail for that pred configuration.
      const std::vector<BasicBlock *> &TargetPreds = (*Table)[Target];
      bool Conflict = false;
      for (BasicBlock *P : Preds)
        if (std::find(TargetPreds.begin(), TargetPreds.end(), P) !=
            TargetPreds.end())
          Conflict = true;
      if (Conflict && Target->firstNonPhi() > 0)
        continue;
      if (Conflict)
        continue; // Keep CFG edges unique for simplicity.

      // Rewrite Target's phis: the incoming for BB becomes one incoming per
      // pred with the same value.
      for (size_t PhiIdx = 0; PhiIdx < Target->firstNonPhi(); ++PhiIdx) {
        Instruction *Phi = Target->instructions()[PhiIdx].get();
        Value *ViaValue = nullptr;
        for (unsigned K = 0; K < Phi->numIncoming(); ++K)
          if (Phi->incomingBlock(K) == BB)
            ViaValue = Phi->incomingValue(K);
        if (!ViaValue)
          continue;
        for (unsigned K = 0; K < Phi->numIncoming(); ++K)
          if (Phi->incomingBlock(K) == BB) {
            Phi->removeIncoming(K);
            break;
          }
        for (BasicBlock *P : Preds)
          Phi->addIncoming(ViaValue, P);
      }
      Table->removeEdge(BB, Target);
      for (BasicBlock *P : Preds) {
        P->terminator()->replaceSuccessor(BB, Target);
        Table->addEdge(P, Target);
      }
      F.eraseBlock(BB);
      LocalChange = Changed = true;
      break;
    }
  }
  return Changed;
}

/// The composite -simplifycfg action.
class SimplifyCfgPass : public FunctionPass {
public:
  std::string name() const override { return "simplifycfg"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    Module &M = *F.parent();
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      LocalChange |= foldBranches(F, M);
      LocalChange |= removeUnreachableBlocks(F);
      LocalChange |= removeTrampolines(F);
      LocalChange |= mergeLinearChains(F);
      Changed |= LocalChange;
    }
    return PassResult::make(Changed, PreservedAnalyses::none());
  }
};

/// Just the linear-chain merging piece, exposed as its own action.
class BlockMergePass : public FunctionPass {
public:
  std::string name() const override { return "block-merge"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    return PassResult::make(mergeLinearChains(F), PreservedAnalyses::none());
  }
};

/// Threads branches through blocks of the form
///   %c = phi i1 [ true, %p1 ], [ %x, %p2 ] ; condbr %c, T, F
/// by retargeting constant-incoming predecessors directly to T or F.
class JumpThreadingPass : public FunctionPass {
public:
  std::string name() const override { return "jump-threading"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    std::optional<PredecessorTable> Preds; // Built at the first candidate.
    bool Changed = false;
    for (const auto &BBPtr : F.blocks()) {
      BasicBlock *BB = BBPtr.get();
      if (BB == F.entry() || BB->size() != 2)
        continue;
      Instruction *Phi = BB->instructions()[0].get();
      Instruction *Term = BB->terminator();
      if (!Term || Phi->opcode() != Opcode::Phi ||
          Term->opcode() != Opcode::CondBr || Term->operand(0) != Phi)
        continue;
      auto *TrueBB = cast<BasicBlock>(Term->operand(1));
      auto *FalseBB = cast<BasicBlock>(Term->operand(2));
      if (TrueBB == BB || FalseBB == BB || TrueBB == FalseBB)
        continue;

      for (unsigned K = 0; K < Phi->numIncoming(); ++K) {
        auto *C = dyn_cast<Constant>(Phi->incomingValue(K));
        if (!C)
          continue;
        BasicBlock *Pred = Phi->incomingBlock(K);
        BasicBlock *Dest = C->intValue() ? TrueBB : FalseBB;
        // The destination must not already have Pred as a predecessor
        // (duplicate edges would corrupt its phis), and must not have phis
        // that require values defined in BB.
        if (!Preds)
          Preds.emplace(F);
        const std::vector<BasicBlock *> &DestPreds = (*Preds)[Dest];
        if (std::find(DestPreds.begin(), DestPreds.end(), Pred) !=
            DestPreds.end())
          continue;
        bool DefinedInBB = false;
        for (size_t PhiIdx = 0; PhiIdx < Dest->firstNonPhi(); ++PhiIdx) {
          Instruction *DPhi = Dest->instructions()[PhiIdx].get();
          for (unsigned J = 0; J < DPhi->numIncoming(); ++J) {
            if (DPhi->incomingBlock(J) != BB)
              continue;
            if (const auto *DefI =
                    dyn_cast<Instruction>(DPhi->incomingValue(J)))
              if (DefI->parent() == BB)
                DefinedInBB = true;
          }
        }
        if (DefinedInBB)
          continue;

        // Thread: Pred jumps straight to Dest.
        for (size_t PhiIdx = 0; PhiIdx < Dest->firstNonPhi(); ++PhiIdx) {
          Instruction *DPhi = Dest->instructions()[PhiIdx].get();
          for (unsigned J = 0; J < DPhi->numIncoming(); ++J)
            if (DPhi->incomingBlock(J) == BB)
              DPhi->addIncoming(DPhi->incomingValue(J), Pred);
        }
        Pred->terminator()->replaceSuccessor(BB, Dest);
        Preds->removeEdge(Pred, BB);
        Preds->addEdge(Pred, Dest);
        Phi->removeIncoming(K);
        Changed = true;
        // BB lost predecessor Pred. If BB became unreachable the cleanup
        // below removes it. Restart the incoming scan.
        K = static_cast<unsigned>(-1);
      }
    }
    if (Changed)
      removeUnreachableBlocks(F);
    return PassResult::make(Changed, PreservedAnalyses::none());
  }
};

/// Reorders blocks into reverse postorder. Semantics-neutral; changes
/// layout, the printed form, and therefore the state hash (a cheap,
/// near-zero-reward action like LLVM's block-placement).
class CanonicalizeBlockOrderPass : public FunctionPass {
public:
  std::string name() const override { return "canonicalize-block-order"; }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    const DominatorTree &DT = AM.domTree(F);
    const std::vector<BasicBlock *> &Rpo = DT.reversePostorder();
    bool Changed = false;
    for (size_t I = 0; I < Rpo.size(); ++I) {
      if (F.blocks()[I].get() != Rpo[I]) {
        F.moveBlock(Rpo[I], I);
        Changed = true;
      }
    }
    // Block-list order is not part of the CFG: dominators, loops and all
    // structural feature counts are untouched — but the order-sensitive
    // artifacts (Inst2vec rows, ProGraML fragments) follow block order.
    return PassResult::make(Changed, PreservedAnalyses::allButLayout());
  }
};

} // namespace

std::unique_ptr<Pass> passes::createSimplifyCfgPass() {
  return std::make_unique<SimplifyCfgPass>();
}
std::unique_ptr<Pass> passes::createBlockMergePass() {
  return std::make_unique<BlockMergePass>();
}
std::unique_ptr<Pass> passes::createJumpThreadingPass() {
  return std::make_unique<JumpThreadingPass>();
}
std::unique_ptr<Pass> passes::createCanonicalizeBlockOrderPass() {
  return std::make_unique<CanonicalizeBlockOrderPass>();
}
