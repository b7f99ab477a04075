//===- passes/Pass.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Pass.h"

using namespace compiler_gym;
using namespace compiler_gym::passes;

Pass::~Pass() = default;

PassResult FunctionPass::run(ir::Module &M, AnalysisManager &AM) {
  // This loop is the copy-on-write choke point: every function-scoped
  // mutation in the pass pipeline flows through here, so a payload shared
  // with a forked session or a snapshot is detached exactly once, before
  // the transform sees it. use_count() can only over-report sharing under
  // races, so the worst case is a redundant copy, never a shared mutation.
  PassResult Agg;
  for (size_t Idx = 0; Idx < M.functions().size(); ++Idx) {
    // Cooperative cancellation between functions: work already done below
    // is committed and invalidated per function, so stopping here leaves
    // the module and analysis caches consistent — the session decides
    // whether to keep or roll back the partial transform.
    if (AM.cancellationRequested()) {
      Agg.Cancelled = true;
      break;
    }
    ir::Function *F = M.functions()[Idx].get();
    if (F->empty())
      continue;
    std::shared_ptr<ir::Function> Old;
    if (M.isFunctionShared(Idx)) {
      Old = M.unshareFunction(Idx);
      F = M.functions()[Idx].get();
      AM.cowDetached(Old.get(), F);
    } else if (F->parent() != &M) {
      // Sole owner of a payload created under a since-released module
      // (e.g. the fork's parent was closed): adopt it.
      F->setParent(&M);
    }
    PassResult R = runOnFunction(*F, AM);
    if (R.Changed) {
      if (Old)
        AM.cowCommitted(Old.get());
      // Fixpoint passes that invalidated mid-run (and then refetched fresh
      // analyses) set InvalidationApplied; re-invalidating here would throw
      // those just-recomputed trees away for the next pass.
      if (!R.InvalidationApplied)
        AM.invalidate(*F, R.Preserved);
      Agg.Changed = true;
      Agg.Preserved.intersect(R.Preserved);
    } else if (Old) {
      // The transform was a no-op on the copy: reinstate the shared
      // payload so the fork family keeps one physical function (and its
      // still-valid cached analyses).
      AM.cowReverted(F, Old.get());
      M.restoreFunction(Idx, std::move(Old));
    }
  }
  Agg.InvalidationApplied = true; // Done per function above.
  return Agg;
}
