//===- passes/Pass.h - Optimization pass interface --------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization pass interface. Passes transform a Module in place
/// under a shared AnalysisManager: they consume cached analyses (dominator
/// tree, loop info) instead of recomputing them, and report a
/// PreservedAnalyses set so only what a transform actually clobbered is
/// invalidated — the unit of action in the LLVM phase-ordering
/// environment. Function passes get a convenience subclass that handles
/// per-function invalidation and the copy-on-write of shared functions:
/// a function shared with another module (a fork, a snapshot, the parsed
/// benchmark) is copied only when the pass's mayChange() says the
/// transform might change it.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_PASSES_PASS_H
#define COMPILER_GYM_PASSES_PASS_H

#include "ir/Module.h"
#include "passes/AnalysisManager.h"

#include <memory>
#include <string>

namespace compiler_gym {
namespace telemetry {
class Histogram;
}
namespace passes {

/// Base class for all transforms.
class Pass {
public:
  virtual ~Pass();

  /// The registry name (stable, used as the environment action name).
  virtual std::string name() const = 0;

  /// Applies the transform. Implementations report each edit to \p AM
  /// themselves — FunctionPass does this per changed function; a module
  /// pass calls AM.invalidate() on each function it changed and
  /// AM.functionErased() before deleting a function. Nothing else
  /// invalidates on the pass's behalf.
  virtual PassResult run(ir::Module &M, AnalysisManager &AM) = 0;

  /// Passes that intentionally exhibit nondeterminism (for the
  /// reproducibility-validation machinery) override this to return false.
  virtual bool isDeterministic() const { return true; }

private:
  friend class PassManager;
  /// cg_pass_latency_us{pass=name()}, looked up on this instance's first
  /// run.
  telemetry::Histogram *Latency = nullptr;
};

/// Convenience base: run per function. Invalidates each changed function
/// in the AnalysisManager with the PreservedAnalyses its transform
/// reported, so an action that only touches one function leaves every
/// other function's cached analyses (and feature vectors) warm.
class FunctionPass : public Pass {
public:
  PassResult run(ir::Module &M, AnalysisManager &AM) override;

  /// Applies the transform to one function.
  virtual PassResult runOnFunction(ir::Function &F, AnalysisManager &AM) = 0;

  /// False only if runOnFunction(\p F) would report no change. run() asks
  /// only for a function shared with another module, and on false neither
  /// copies nor transforms it. Read-only and conservative (true when
  /// unsure): it writes nothing to \p F and never calls F.parent(), which
  /// may be another, possibly destroyed, module; constants are interned
  /// through the session's module \p M. Analyses it asks \p AM for are
  /// cached on the shared payload, which is immutable, so later passes
  /// hit them. An override runs the detection code runOnFunction uses.
  virtual bool mayChange(ir::Module &M, const ir::Function &F,
                         AnalysisManager &AM);
};

/// What became of one shared function a pass visited, counted in
/// cg_pass_cow_copies_total{outcome}: copied and changed, copied and left
/// unchanged, or not copied because mayChange() said no.
enum class CowOutcome { Changed, Unchanged, Skipped };
void countCowCopy(CowOutcome Outcome);

} // namespace passes
} // namespace compiler_gym

#endif // COMPILER_GYM_PASSES_PASS_H
