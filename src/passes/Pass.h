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
/// per-function invalidation.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_PASSES_PASS_H
#define COMPILER_GYM_PASSES_PASS_H

#include "ir/Module.h"
#include "passes/AnalysisManager.h"

#include <memory>
#include <string>

namespace compiler_gym {
namespace passes {

/// Base class for all transforms.
class Pass {
public:
  virtual ~Pass();

  /// The registry name (stable, used as the environment action name).
  virtual std::string name() const = 0;

  /// AnalysisKind mask of analyses this pass consumes. Informational (the
  /// manager computes lazily); lets tooling pre-warm or audit pipelines.
  virtual unsigned requiredAnalyses() const { return 0; }

  /// Applies the transform. Implementations must report invalidation to
  /// \p AM at the finest granularity available — FunctionPass does this per
  /// changed function; module-scoped passes invalidate module-wide and
  /// call AM.functionErased() before deleting a function.
  virtual PassResult run(ir::Module &M, AnalysisManager &AM) = 0;

  /// Passes that intentionally exhibit nondeterminism (for the
  /// reproducibility-validation machinery) override this to return false.
  virtual bool isDeterministic() const { return true; }
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
};

} // namespace passes
} // namespace compiler_gym

#endif // COMPILER_GYM_PASSES_PASS_H
