//===- passes/Loops.cpp - Loop transforms ----------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop passes. loop-simplify creates preheaders; licm requires them (a
/// real pass-ordering interaction, as in LLVM); loop-unroll fully unrolls
/// single-block counted loops; loop-delete removes side-effect-free loops
/// whose values are unused.
///
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

/// Returns the preheader of \p Loop: the unique out-of-loop predecessor of
/// the header, whose only successor is the header. nullptr if absent.
BasicBlock *findPreheader(const NaturalLoop &Loop,
                          const PredecessorTable &Preds) {
  BasicBlock *Candidate = nullptr;
  for (BasicBlock *Pred : Preds[Loop.Header]) {
    if (Loop.contains(Pred))
      continue;
    if (Candidate)
      return nullptr; // Multiple outside preds.
    Candidate = Pred;
  }
  if (!Candidate)
    return nullptr;
  std::vector<BasicBlock *> Succs = Candidate->successors();
  std::unordered_set<BasicBlock *> Unique(Succs.begin(), Succs.end());
  if (Unique.size() != 1)
    return nullptr;
  return Candidate;
}

/// True if loop-simplify inserts a preheader for \p Loop: it has none,
/// its header is not the entry (nothing can go before the entry), and the
/// header has a predecessor outside the loop.
bool needsPreheader(const Function &F, const NaturalLoop &Loop,
                    const PredecessorTable &Preds) {
  if (Loop.Header == F.entry() || findPreheader(Loop, Preds))
    return false;
  for (BasicBlock *Pred : Preds[Loop.Header])
    if (!Loop.contains(Pred))
      return true;
  return false; // Unreachable loop; nothing to do.
}

/// Creates preheaders for loops that lack one.
class LoopSimplifyPass : public FunctionPass {
public:
  std::string name() const override { return "loop-simplify"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &AM) override {
    const std::vector<NaturalLoop> &Loops = AM.loops(F);
    if (Loops.empty())
      return false;
    PredecessorTable Preds(F);
    for (const NaturalLoop &Loop : Loops)
      if (needsPreheader(F, Loop, Preds))
        return true;
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      const std::vector<NaturalLoop> &Loops = AM.loops(F);
      if (Loops.empty())
        break;
      PredecessorTable Preds(F);
      for (const NaturalLoop &Loop : Loops) {
        if (!needsPreheader(F, Loop, Preds))
          continue;
        insertPreheader(F, Loop, Preds);
        // CFG changed: Loops is now stale — drop it and break out so the
        // next round re-discovers from fresh analyses.
        AM.invalidate(F, PreservedAnalyses::none());
        LocalChange = Changed = true;
        break;
      }
    }
    // invalidate(F, none()) already ran at every CFG edit and the final
    // no-change round refetched fresh analyses: they are valid for the
    // next pass (licm), so nothing is left to invalidate.
    return PassResult::make(Changed, PreservedAnalyses::all());
  }

private:
  static void insertPreheader(Function &F, const NaturalLoop &Loop,
                              const PredecessorTable &Preds) {
    BasicBlock *Header = Loop.Header;
    std::vector<BasicBlock *> OutsidePreds;
    for (BasicBlock *Pred : Preds[Header])
      if (!Loop.contains(Pred))
        OutsidePreds.push_back(Pred);

    BasicBlock *PH = F.createBlock(Header->name() + ".preheader");

    // Each header phi splits: outside incoming move to a new phi in PH.
    for (size_t PhiIdx = 0; PhiIdx < Header->firstNonPhi(); ++PhiIdx) {
      Instruction *Phi = Header->instructions()[PhiIdx].get();
      auto NewPhi = std::make_unique<Instruction>(Opcode::Phi, Phi->type());
      Instruction *PHPhi = nullptr;
      std::vector<std::pair<Value *, BasicBlock *>> Outside;
      for (unsigned K = 0; K < Phi->numIncoming();) {
        if (!Loop.contains(Phi->incomingBlock(K))) {
          Outside.emplace_back(Phi->incomingValue(K), Phi->incomingBlock(K));
          Phi->removeIncoming(K);
        } else {
          ++K;
        }
      }
      if (Outside.size() == 1) {
        // Single outside edge: no phi needed in the preheader.
        Phi->addIncoming(Outside[0].first, PH);
        continue;
      }
      PHPhi = PH->append(std::move(NewPhi));
      for (auto &[V, BB] : Outside)
        PHPhi->addIncoming(V, BB);
      Phi->addIncoming(PHPhi, PH);
    }

    auto Br = std::make_unique<Instruction>(Opcode::Br, Type::Void,
                                            std::vector<Value *>{Header});
    PH->append(std::move(Br));
    for (BasicBlock *Pred : OutsidePreds)
      Pred->terminator()->replaceSuccessor(Header, PH);
  }
};

/// Hoists loop-invariant pure instructions into the preheader. The
/// aggressive variant also hoists loads out of loops that contain no
/// stores or calls.
class LicmPass : public FunctionPass {
public:
  explicit LicmPass(bool HoistLoads) : HoistLoads(HoistLoads) {}

  std::string name() const override {
    return HoistLoads ? "licm-promote" : "licm";
  }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    const std::vector<NaturalLoop> &Loops = AM.loops(F);
    if (Loops.empty())
      return PassResult::make(false, PreservedAnalyses::cfg());
    PredecessorTable Preds(F);
    bool Changed = false;
    for (const NaturalLoop &Loop : Loops) {
      BasicBlock *PH = findPreheader(Loop, Preds);
      if (!PH)
        continue; // loop-simplify has not run: a real ordering dependency.

      bool LoopHasMemEffects = false;
      for (BasicBlock *BB : Loop.Blocks)
        for (const auto &I : BB->instructions())
          if (I->opcode() == Opcode::Store || I->opcode() == Opcode::Call)
            LoopHasMemEffects = true;

      // Values defined inside the loop.
      std::unordered_set<const Value *> InLoop;
      for (BasicBlock *BB : Loop.Blocks)
        for (const auto &I : BB->instructions())
          InLoop.insert(I.get());

      // Hoist in function block order: Loop.Blocks is an unordered set of
      // pointers, and its order would leak into the preheader's order.
      bool LocalChange = true;
      while (LocalChange) {
        LocalChange = false;
        for (const auto &Block : F.blocks()) {
          BasicBlock *BB = Block.get();
          if (!Loop.contains(BB))
            continue;
          for (size_t I = 0; I < BB->size(); ++I) {
            Instruction *Inst = BB->instructions()[I].get();
            // Loads are only hoisted from effect-free loops and when the
            // address is trivially in-bounds (a global or alloca base), so
            // speculation cannot introduce a trap.
            bool SafeLoad = HoistLoads && Inst->opcode() == Opcode::Load &&
                            !LoopHasMemEffects &&
                            (isa<GlobalVariable>(Inst->operand(0)) ||
                             (isa<Instruction>(Inst->operand(0)) &&
                              cast<Instruction>(Inst->operand(0))->opcode() ==
                                  Opcode::Alloca));
            bool Hoistable = Inst->isPure() || SafeLoad;
            if (!Hoistable || Inst->isTerminator())
              continue;
            bool Invariant = true;
            for (const Value *Op : Inst->operands())
              if (InLoop.count(Op))
                Invariant = false;
            if (!Invariant)
              continue;
            // Division can trap; hoisting may introduce a trap on paths
            // that never executed it. Only hoist trapping ops when the
            // divisor is a non-zero constant.
            if (Inst->opcode() == Opcode::SDiv ||
                Inst->opcode() == Opcode::SRem) {
              const auto *Divisor = dyn_cast<Constant>(Inst->operand(1));
              if (!Divisor || Divisor->isZero())
                continue;
            }
            std::unique_ptr<Instruction> Owned = BB->detach(I);
            --I;
            Instruction *Raw = Owned.get();
            Owned->setParent(PH);
            PH->insert(PH->size() - 1, std::move(Owned));
            InLoop.erase(Raw);
            LocalChange = Changed = true;
          }
        }
      }
    }
    // Hoisting moves instructions along existing edges; the block graph —
    // and therefore the cached loops just iterated — stay valid.
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  bool HoistLoads;
};

/// Fully unrolls single-block counted loops with a constant trip count of
/// at most MaxTripCount iterations.
class LoopUnrollPass : public FunctionPass {
public:
  explicit LoopUnrollPass(unsigned MaxTripCount)
      : MaxTripCount(MaxTripCount) {}

  std::string name() const override {
    return "loop-unroll<" + std::to_string(MaxTripCount) + ">";
  }

  bool mayChange(Module &M, const Function &F, AnalysisManager &AM) override {
    const std::vector<NaturalLoop> &Loops = AM.loops(F);
    if (Loops.empty())
      return false;
    PredecessorTable Preds(F);
    for (const NaturalLoop &Loop : Loops)
      if (plan(M, Loop, Preds))
        return true;
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    Module &M = *F.parent();
    // Unrolling registers every clone and drops every erased instruction,
    // so one table serves all rounds.
    UseTable Uses(F);
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      const std::vector<NaturalLoop> &Loops = AM.loops(F);
      if (Loops.empty())
        break;
      PredecessorTable Preds(F);
      for (const NaturalLoop &Loop : Loops) {
        if (std::optional<UnrollPlan> P = plan(M, Loop, Preds)) {
          unroll(F, *P, Uses);
          AM.invalidate(F, PreservedAnalyses::none());
          LocalChange = Changed = true;
          break;
        }
      }
    }
    // As in loop-simplify: mid-run invalidation + final-round refetch
    // leave valid cached analyses behind.
    return PassResult::make(Changed, PreservedAnalyses::all());
  }

private:
  /// A loop to unroll: the self-loop block B, entered from the preheader
  /// PH and left to Exit; each phi's preheader (Init) and latch (Next)
  /// value; whether the true edge continues the loop; the trip count.
  struct UnrollPlan {
    BasicBlock *B = nullptr;
    BasicBlock *PH = nullptr;
    BasicBlock *Exit = nullptr;
    std::vector<Instruction *> Phis;
    std::unordered_map<Instruction *, Value *> Init, Next;
    bool ContinueOnTrue = false;
    unsigned Trip = 0;
  };

  /// How to fully unroll \p Loop: a single block with a preheader, ending
  /// in a condbr, whose phis each take one value from the preheader and
  /// one from the latch, and whose constant trip count is at most
  /// MaxTripCount. Nothing otherwise. The trip-count simulation interns
  /// the constants it folds in \p M.
  std::optional<UnrollPlan> plan(Module &M, const NaturalLoop &Loop,
                                 const PredecessorTable &Preds) const {
    if (Loop.Blocks.size() != 1)
      return std::nullopt; // Only self-loop blocks (rotated form).
    UnrollPlan P;
    P.B = Loop.Header;
    P.PH = findPreheader(Loop, Preds);
    if (!P.PH)
      return std::nullopt;
    Instruction *Term = P.B->terminator();
    if (!Term || Term->opcode() != Opcode::CondBr)
      return std::nullopt;
    auto *TrueBB = cast<BasicBlock>(Term->operand(1));
    auto *FalseBB = cast<BasicBlock>(Term->operand(2));
    if (TrueBB == FalseBB)
      return std::nullopt;
    P.Exit = (TrueBB == P.B) ? FalseBB : TrueBB;
    P.ContinueOnTrue = TrueBB == P.B;
    if (P.Exit == P.B)
      return std::nullopt;

    // Collect phis: each must have exactly two incoming (PH and B).
    for (size_t I = 0; I < P.B->firstNonPhi(); ++I)
      P.Phis.push_back(P.B->instructions()[I].get());
    for (Instruction *Phi : P.Phis) {
      if (Phi->numIncoming() != 2)
        return std::nullopt;
      for (unsigned K = 0; K < 2; ++K) {
        if (Phi->incomingBlock(K) == P.PH)
          P.Init[Phi] = Phi->incomingValue(K);
        else if (Phi->incomingBlock(K) == P.B)
          P.Next[Phi] = Phi->incomingValue(K);
        else
          return std::nullopt;
      }
      if (!P.Init.count(Phi) || !P.Next.count(Phi))
        return std::nullopt;
    }

    // Simulate the loop over constants to find the trip count. All phis
    // must start from constants and every instruction must fold.
    uint64_t Trip = 0;
    if (!computeTripCount(M, P, Trip) || Trip == 0 || Trip > MaxTripCount)
      return std::nullopt;
    P.Trip = static_cast<unsigned>(Trip);
    return P;
  }

  /// Abstractly executes the loop body with constant phi values. Returns
  /// false if anything does not fold or the loop fails to exit within
  /// MaxTripCount+1 iterations.
  bool computeTripCount(Module &M, const UnrollPlan &P,
                        uint64_t &TripOut) const {
    BasicBlock *B = P.B;
    std::unordered_map<const Value *, Constant *> Env;
    for (Instruction *Phi : P.Phis) {
      auto *C = dyn_cast<Constant>(P.Init.at(Phi));
      if (!C)
        return false;
      Env[Phi] = C;
    }
    Instruction *Term = B->terminator();
    auto evalConst = [&](const Value *V) -> Constant * {
      if (auto *C = dyn_cast<Constant>(const_cast<Value *>(V)))
        return C;
      auto It = Env.find(V);
      return It == Env.end() ? nullptr : It->second;
    };

    for (uint64_t Iter = 0; Iter <= MaxTripCount; ++Iter) {
      // Evaluate body instructions. Values that do not fold (loads, calls,
      // geps on globals, ...) are simply "unknown"; we bail out only when
      // an unknown value feeds the exit condition or a phi update.
      for (size_t I = B->firstNonPhi(); I + 1 < B->size(); ++I) {
        Instruction *Inst = B->instructions()[I].get();
        if (!Inst->isPure())
          continue; // Unknown result (and effects are replicated anyway).
        std::vector<Value *> ConstOps;
        bool AllConst = true;
        for (const Value *Op : Inst->operands()) {
          Constant *C = evalConst(Op);
          if (!C) {
            AllConst = false;
            break;
          }
          ConstOps.push_back(C);
        }
        if (!AllConst) {
          Env.erase(Inst); // Stale values from earlier iterations are wrong.
          continue;
        }
        Instruction Temp(Inst->opcode(), Inst->type(), std::move(ConstOps));
        Temp.setPred(Inst->pred());
        if (Constant *Folded = foldConstant(Temp, M))
          Env[Inst] = Folded;
        else
          Env.erase(Inst); // E.g. division by zero this iteration.
      }
      Constant *Cond = evalConst(Term->operand(0));
      if (!Cond)
        return false;
      bool Continue = P.ContinueOnTrue ? Cond->intValue() != 0
                                       : Cond->intValue() == 0;
      if (!Continue) {
        TripOut = Iter + 1; // Body ran Iter+1 times.
        return true;
      }
      // Advance phis.
      std::unordered_map<const Value *, Constant *> NewEnv;
      for (Instruction *Phi : P.Phis) {
        Constant *C = evalConst(P.Next.at(Phi));
        if (!C)
          return false;
        NewEnv[Phi] = C;
      }
      for (auto &[Phi, C] : NewEnv)
        Env[Phi] = C;
    }
    return false; // Did not exit within the threshold.
  }

  static void unroll(Function &F, const UnrollPlan &P, UseTable &Uses) {
    BasicBlock *B = P.B;
    const std::vector<Instruction *> &Phis = P.Phis;
    const unsigned Trip = P.Trip;
    // Current SSA value for each phi, starting from the preheader inputs.
    std::unordered_map<const Value *, Value *> PhiVal;
    for (Instruction *Phi : Phis)
      PhiVal[Phi] = P.Init.at(Phi);

    std::vector<BasicBlock *> Copies;
    std::unordered_map<const Value *, Value *> LastMap;

    for (unsigned Iter = 0; Iter < Trip; ++Iter) {
      BasicBlock *Copy =
          F.createBlock(B->name() + ".unroll" + std::to_string(Iter));
      Copies.push_back(Copy);
      std::unordered_map<const Value *, Value *> Map = PhiVal;
      for (size_t I = B->firstNonPhi(); I + 1 < B->size(); ++I) {
        Instruction *Inst = B->instructions()[I].get();
        auto Clone = std::make_unique<Instruction>(Inst->opcode(),
                                                   Inst->type());
        Clone->setPred(Inst->pred());
        Clone->setAllocaWords(Inst->allocaWords());
        for (Value *Op : Inst->operands()) {
          auto It = Map.find(Op);
          Clone->operands().push_back(It == Map.end() ? Op : It->second);
        }
        Instruction *NewI = Copy->append(std::move(Clone));
        Uses.add(NewI);
        Map[Inst] = NewI;
      }
      // Advance the phi values through the latch edge.
      std::unordered_map<const Value *, Value *> NewPhiVal;
      for (Instruction *Phi : Phis) {
        Value *N = P.Next.at(Phi);
        auto It = Map.find(N);
        NewPhiVal[Phi] = It == Map.end() ? N : It->second;
      }
      PhiVal = std::move(NewPhiVal);
      LastMap = std::move(Map);
    }

    // Chain the copies: PH -> copy0 -> ... -> copyN-1 -> Exit.
    P.PH->terminator()->replaceSuccessor(B, Copies.front());
    for (unsigned Iter = 0; Iter < Trip; ++Iter) {
      BasicBlock *To = (Iter + 1 < Trip) ? Copies[Iter + 1] : P.Exit;
      auto Br = std::make_unique<Instruction>(Opcode::Br, Type::Void,
                                              std::vector<Value *>{To});
      Copies[Iter]->append(std::move(Br));
    }

    // Rewire the world outside the loop:
    //  * uses of B's phis become the phi values of the last iteration (the
    //    one that exits), not the values its latch would have carried on;
    //  * uses of B's body instructions become the last copy's clones;
    //  * Exit's phis see the last copy as predecessor instead of B.
    for (Instruction *Phi : Phis)
      Uses.replaceAllUsesWith(Phi, LastMap.at(Phi));
    for (size_t I = B->firstNonPhi(); I + 1 < B->size(); ++I) {
      Instruction *Inst = B->instructions()[I].get();
      auto It = LastMap.find(Inst);
      if (It != LastMap.end())
        Uses.replaceAllUsesWith(Inst, It->second);
    }
    replacePhiIncomingBlock(*P.Exit, B, Copies.back());

    // B is now unreachable; its self-edges vanish with it.
    // Remove B's instructions' references then the block.
    while (!B->empty()) {
      Uses.drop(B->back());
      B->erase(B->size() - 1);
    }
    F.eraseBlock(B);
  }

  unsigned MaxTripCount;
};

/// Deletes loops with no side effects whose values are unused outside.
class LoopDeletePass : public FunctionPass {
public:
  std::string name() const override { return "loop-delete"; }

  bool mayChange(Module &, const Function &F, AnalysisManager &AM) override {
    const std::vector<NaturalLoop> &Loops = AM.loops(F);
    if (Loops.empty())
      return false;
    PredecessorTable Preds(F);
    UseTable Uses(F); // Built at the first loop that passes the CFG checks.
    for (const NaturalLoop &Loop : Loops)
      if (deletion(Loop, Preds, Uses).first)
        return true;
    return false;
  }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    bool Changed = false;
    bool LocalChange = true;
    while (LocalChange) {
      LocalChange = false;
      const std::vector<NaturalLoop> &Loops = AM.loops(F);
      if (Loops.empty())
        break;
      PredecessorTable Preds(F);
      // A deletion erases whole blocks, which ends the round and the table.
      UseTable Uses(F);
      for (const NaturalLoop &Loop : Loops) {
        auto [PH, Exit] = deletion(Loop, Preds, Uses);
        if (!PH)
          continue;
        // Redirect the preheader straight to the exit and drop the loop.
        PH->terminator()->replaceSuccessor(Loop.Header, Exit);
        removeUnreachableBlocks(F);
        AM.invalidate(F, PreservedAnalyses::none());
        LocalChange = Changed = true;
        break;
      }
    }
    // As in loop-simplify: mid-run invalidation + final-round refetch
    // leave valid cached analyses behind.
    return PassResult::make(Changed, PreservedAnalyses::all());
  }

private:
  /// The preheader and exit of \p Loop when it can be deleted: it has a
  /// preheader, no stores or calls, exactly one exit block, outside the
  /// loop and without phis, and no value used outside. Nulls otherwise.
  static std::pair<BasicBlock *, BasicBlock *>
  deletion(const NaturalLoop &Loop, const PredecessorTable &Preds,
           UseTable &Uses) {
    const std::pair<BasicBlock *, BasicBlock *> No{nullptr, nullptr};
    BasicBlock *PH = findPreheader(Loop, Preds);
    if (!PH)
      return No;
    // No side effects inside.
    for (BasicBlock *BB : Loop.Blocks)
      for (const auto &I : BB->instructions())
        if (I->opcode() == Opcode::Store || I->opcode() == Opcode::Call)
          return No;
    // Exactly one exit target, outside the loop, with no phis.
    std::unordered_set<BasicBlock *> Exits;
    for (BasicBlock *BB : Loop.Blocks)
      for (BasicBlock *Succ : BB->successors())
        if (!Loop.contains(Succ))
          Exits.insert(Succ);
    if (Exits.size() != 1)
      return No;
    BasicBlock *Exit = *Exits.begin();
    if (Exit->firstNonPhi() > 0)
      return No;
    // Nothing defined inside may be used outside.
    for (BasicBlock *BB : Loop.Blocks)
      for (const auto &I : BB->instructions())
        for (const Instruction *User : Uses.users(I.get()))
          if (!Loop.contains(User->parent()))
            return No;
    return {PH, Exit};
  }
};

} // namespace

std::unique_ptr<Pass> passes::createLoopSimplifyPass() {
  return std::make_unique<LoopSimplifyPass>();
}
std::unique_ptr<Pass> passes::createLicmPass(bool HoistLoads) {
  return std::make_unique<LicmPass>(HoistLoads);
}
std::unique_ptr<Pass> passes::createLoopUnrollPass(unsigned MaxTripCount) {
  return std::make_unique<LoopUnrollPass>(MaxTripCount);
}
std::unique_ptr<Pass> passes::createLoopDeletePass() {
  return std::make_unique<LoopDeletePass>();
}
