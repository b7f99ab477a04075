//===- passes/PassManager.h - Stateful pipeline execution -------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stateful pass manager bound to one module: it owns constructed pass
/// instances (one per name, reused across step() calls instead of hitting
/// the registry factory every time) and an AnalysisManager that carries
/// dominator trees, loop info and observation artifacts across pass
/// executions — the unit of work behind both the environment's step() (a
/// single pass) and the preset pipelines (-Oz/-O3 baselines the paper
/// scales rewards against).
///
/// Multi-pass callers construct a PassManager, so pass instances and
/// analyses carry across the pipeline; the free runPass() wraps a
/// transient one for single-pass callers (autotuners, validation, tests).
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_PASSES_PASSMANAGER_H
#define COMPILER_GYM_PASSES_PASSMANAGER_H

#include "passes/PassRegistry.h"
#include "util/Status.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace passes {

/// Executes passes over one module with cached analyses and cached pass
/// instances. Not thread-safe; sessions own one each.
class PassManager {
public:
  explicit PassManager(ir::Module &M);

  /// Runs the registered pass \p Name. Returns whether the module changed,
  /// or NotFound for unknown names. When preservation verification is on,
  /// a pass whose PreservedAnalyses claim is wrong yields Internal.
  StatusOr<bool> run(const std::string &Name);

  /// Runs an externally-owned pass instance (test hook for unregistered
  /// passes).
  StatusOr<bool> run(Pass &P);

  /// Runs \p Names in order; true if any pass changed the module.
  StatusOr<bool> runPipeline(const std::vector<std::string> &Names);

  /// Runs \p Names repeatedly (at most \p MaxRounds rounds) until a
  /// fixpoint. Pass instances are constructed once and reused across
  /// rounds.
  StatusOr<bool> runToFixpoint(const std::vector<std::string> &Names,
                               int MaxRounds = 4);

  /// The shared analysis state, which also serves the LLVM session's
  /// InstCount, Autophase, Inst2vec and Programl observations.
  AnalysisManager &analysisManager() { return AM; }

  /// Installs (or clears, with null) the in-flight request's cancel token.
  /// run()/runPipeline*() poll it before every pass and FunctionPass::run
  /// polls it between functions; a fired token surfaces as a
  /// DeadlineExceeded status with all completed work correctly committed,
  /// letting the session roll back to its last committed state.
  void setCancelToken(const util::CancelToken *Tok) {
    Cancel = Tok;
    AM.setCancelToken(Tok);
  }

  /// After every pass run, recompute each analysis the pass claimed to
  /// preserve, and check that the module's freeze() prints the same as the
  /// module; fail the run on mismatch. Defaults to on in debug (!NDEBUG)
  /// builds; expensive, so Release builds leave it off.
  void setVerifyPreservation(bool Enabled) { VerifyPreservation = Enabled; }
  bool verifyPreservation() const { return VerifyPreservation; }

  // -- Telemetry -----------------------------------------------------------
  struct Stats {
    uint64_t PassInstancesCreated = 0; ///< Registry factory invocations.
  };
  const Stats &stats() const { return St; }

private:
  /// The cached instance for \p Name, constructing it on first use.
  Pass *getPass(const std::string &Name);

  ir::Module &M;
  AnalysisManager AM;
  std::unordered_map<std::string, std::unique_ptr<Pass>> Instances;
  const util::CancelToken *Cancel = nullptr;
  bool VerifyPreservation;
  Stats St;
};

/// Runs a single pass by name. Returns whether the module changed, or
/// NotFound for unknown pass names.
StatusOr<bool> runPass(ir::Module &M, const std::string &Name);

} // namespace passes
} // namespace compiler_gym

#endif // COMPILER_GYM_PASSES_PASSMANAGER_H
