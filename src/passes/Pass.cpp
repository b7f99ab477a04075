//===- passes/Pass.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Pass.h"

#include "telemetry/MetricsRegistry.h"

using namespace compiler_gym;
using namespace compiler_gym::passes;

Pass::~Pass() = default;

void passes::countCowCopy(CowOutcome Outcome) {
  static telemetry::MetricsRegistry &R = telemetry::MetricsRegistry::global();
  static const char *Help =
      "Shared functions a pass visited: copied and changed, copied and "
      "unchanged, or skipped because the pass could not change them";
  static telemetry::Counter &Changed = R.counter(
      "cg_pass_cow_copies_total", {{"outcome", "changed"}}, Help);
  static telemetry::Counter &Unchanged = R.counter(
      "cg_pass_cow_copies_total", {{"outcome", "unchanged"}}, Help);
  static telemetry::Counter &Skipped = R.counter(
      "cg_pass_cow_copies_total", {{"outcome", "skipped"}}, Help);
  switch (Outcome) {
  case CowOutcome::Changed:
    Changed.inc();
    return;
  case CowOutcome::Unchanged:
    Unchanged.inc();
    return;
  case CowOutcome::Skipped:
    Skipped.inc();
    return;
  }
}

bool FunctionPass::mayChange(ir::Module &, const ir::Function &,
                             AnalysisManager &) {
  return true;
}

PassResult FunctionPass::run(ir::Module &M, AnalysisManager &AM) {
  // This loop is the copy-on-write choke point: every function-scoped
  // mutation in the pass pipeline flows through here. A payload shared
  // with a forked session or a snapshot is first shown to mayChange();
  // if the pass cannot change it, the slot keeps the shared payload and
  // the pass moves on. Otherwise it is detached exactly once, before the
  // transform sees it, and kept even when the transform is a no-op
  // (snapshots take the frozen twin). use_count() can only over-report
  // sharing under races, so the worst case is a redundant copy, never a
  // shared mutation.
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
    bool Copied = false;
    if (M.isFunctionShared(Idx)) {
      if (!mayChange(M, *F, AM)) {
        countCowCopy(CowOutcome::Skipped);
        continue;
      }
      const ir::Function *Old = M.unshareFunction(Idx);
      F = M.functions()[Idx].get();
      AM.cowDetached(Old, F);
      Copied = true;
    } else if (F->parent() != &M) {
      // Sole owner of a payload created under a since-released module
      // (e.g. the fork's parent was closed): adopt it.
      F->setParent(&M);
    }
    PassResult R = runOnFunction(*F, AM);
    if (Copied)
      countCowCopy(R.Changed ? CowOutcome::Changed : CowOutcome::Unchanged);
    if (R.Changed) {
      M.functionChanged(Idx);
      AM.invalidate(*F, R.Preserved);
      Agg.Changed = true;
    }
  }
  return Agg;
}
