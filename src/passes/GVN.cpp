//===- passes/GVN.cpp - Value numbering passes -----------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator-scoped redundancy elimination (gvn, early-cse), plus the
/// deliberately nondeterministic gvn-sink pass reproducing the LLVM
/// reproducibility bug described in the paper (§III-B3): it sorts a vector
/// of basic block pointers by address, so its output depends on heap
/// layout. CompilerGym's replay validation detects exactly this.
///
//===----------------------------------------------------------------------===//

#include "passes/Transforms.h"
#include "passes/Utils.h"

#include "ir/Dominators.h"
#include "ir/UseTable.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

using ExprKey = std::vector<uint64_t>;

ExprKey makeKey(const Instruction &I, const StableValueIds &Ids) {
  ExprKey Key;
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

/// Dominator-tree DFS with a scoped expression table. If \p CseLoads is
/// set, block-local load reuse is performed as well (early-cse behaviour).
class DomScopedVnPass : public FunctionPass {
public:
  DomScopedVnPass(std::string PassName, bool CseLoads)
      : PassName(std::move(PassName)), CseLoads(CseLoads) {}

  std::string name() const override { return PassName; }

  PassResult runOnFunction(Function &F, AnalysisManager &AM) override {
    const DominatorTree &DT = AM.domTree(F);
    StableValueIds Ids(F);

    // Dom-tree children lists (deterministic order: function block order).
    std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>> Children;
    for (const auto &BB : F.blocks()) {
      if (!DT.isReachable(BB.get()))
        continue;
      if (BasicBlock *Parent = DT.idom(BB.get()))
        Children[Parent].push_back(BB.get());
    }

    bool Changed = false;
    std::map<ExprKey, Value *> Table;
    UseTable Uses(F);
    // Scope stack entries record the keys we shadowed/added per block.
    dfs(F.entry(), Children, Ids, Table, Uses, Changed);
    return PassResult::make(Changed, PreservedAnalyses::cfg());
  }

private:
  void dfs(BasicBlock *BB,
           std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>>
               &Children,
           const StableValueIds &Ids, std::map<ExprKey, Value *> &Table,
           UseTable &Uses, bool &Changed) {
    std::vector<std::pair<ExprKey, Value *>> Shadowed;
    std::vector<ExprKey> Added;

    // Block-local load table: pointer id -> load instruction.
    std::unordered_map<uint64_t, Instruction *> LocalLoads;

    for (size_t I = 0; I < BB->size(); ++I) {
      Instruction *Inst = BB->instructions()[I].get();
      if (CseLoads) {
        if (Inst->opcode() == Opcode::Store || Inst->opcode() == Opcode::Call)
          LocalLoads.clear();
        else if (Inst->opcode() == Opcode::Load) {
          uint64_t PtrId = Ids.idOf(Inst->operand(0));
          auto It = LocalLoads.find(PtrId);
          if (It != LocalLoads.end() && It->second->type() == Inst->type()) {
            Uses.replaceAllUsesWith(Inst, It->second);
            Uses.drop(Inst);
            BB->erase(I);
            --I;
            Changed = true;
            continue;
          }
          LocalLoads.emplace(PtrId, Inst);
        }
      }
      if (!Inst->isPure())
        continue;
      ExprKey Key = makeKey(*Inst, Ids);
      auto It = Table.find(Key);
      if (It != Table.end()) {
        Uses.replaceAllUsesWith(Inst, It->second);
        Uses.drop(Inst);
        BB->erase(I);
        --I;
        Changed = true;
        continue;
      }
      Table.emplace(std::move(Key), Inst);
      Added.push_back(makeKey(*Inst, Ids));
    }

    auto ChildIt = Children.find(BB);
    if (ChildIt != Children.end())
      for (BasicBlock *Child : ChildIt->second)
        dfs(Child, Children, Ids, Table, Uses, Changed);

    for (const ExprKey &Key : Added)
      Table.erase(Key);
    for (auto &[Key, V] : Shadowed)
      Table[Key] = V;
  }

  std::string PassName;
  bool CseLoads;
};

/// The paper's reproducibility-bug reproduction: "LLVM's -gvn-sink pass
/// contains an operation that sorts a vector of basic block pointers by
/// address, causing inconsistent output". This pass performs a
/// semantics-preserving but layout-visible transformation (reordering the
/// non-entry blocks) keyed on raw pointer order, so repeated runs from
/// identical inputs produce differently-printed modules.
class GvnSinkPass : public FunctionPass {
public:
  std::string name() const override { return "gvn-sink"; }
  bool isDeterministic() const override { return false; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    if (F.numBlocks() < 3)
      return PassResult::make(false, PreservedAnalyses::all());
    std::vector<BasicBlock *> Rest;
    for (size_t I = 1; I < F.numBlocks(); ++I)
      Rest.push_back(F.blocks()[I].get());
    std::vector<BasicBlock *> Sorted = Rest;
    std::sort(Sorted.begin(), Sorted.end()); // Pointer order: the bug.
    if (Sorted == Rest)
      return PassResult::make(false, PreservedAnalyses::all());
    for (size_t I = 0; I < Sorted.size(); ++I)
      F.moveBlock(Sorted[I], I + 1);
    // Like canonicalize-block-order: layout-only; counts and CFG analyses
    // survive, the order-sensitive Inst2vec/ProGraML artifacts do not.
    return PassResult::make(true, PreservedAnalyses::allButLayout());
  }
};

} // namespace

std::unique_ptr<Pass> passes::createGvnPass() {
  return std::make_unique<DomScopedVnPass>("gvn", /*CseLoads=*/false);
}
std::unique_ptr<Pass> passes::createEarlyCsePass() {
  return std::make_unique<DomScopedVnPass>("early-cse", /*CseLoads=*/true);
}
std::unique_ptr<Pass> passes::createGvnSinkPass() {
  return std::make_unique<GvnSinkPass>();
}
