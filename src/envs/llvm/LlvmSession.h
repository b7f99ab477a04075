//===- envs/llvm/LlvmSession.h - Phase ordering backend ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LLVM phase-ordering environment backend (§V-A): actions are
/// optimization passes applied *incrementally* to an in-memory module —
/// the design that gives CompilerGym its 27x speedup over
/// recompile-from-scratch baselines (Table II). Environment initialization
/// is O(1) amortized through a process-wide cache of parsed benchmarks.
///
/// The session keeps a stateful passes::PassManager across step() calls:
/// pass objects are constructed once, and the AnalysisManager carries
/// dominator trees, loop info and per-function feature vectors between
/// actions, invalidating only what each pass reports clobbered. The module
/// digest behind stateKey() is cached until an action changes the module,
/// so the service's ObservationCache can answer repeats without re-walking
/// the module on every request.
///
/// Observation spaces: Ir, InstCount, Autophase, Inst2vec, Programl,
/// IrInstructionCount, IrInstructionCountOz, ObjectTextSizeBytes,
/// ObjectTextSizeOz, Runtime, IrHash.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_ENVS_LLVM_LLVMSESSION_H
#define COMPILER_GYM_ENVS_LLVM_LLVMSESSION_H

#include "service/CompilationSession.h"

#include "ir/Module.h"
#include "passes/PassManager.h"
#include "util/Rng.h"

#include <memory>
#include <optional>

namespace compiler_gym {
namespace envs {

/// Registers the "llvm" compiler with the service runtime. Idempotent.
void registerLlvmEnvironment();

/// The LLVM-like backend session.
class LlvmSession : public service::CompilationSession {
public:
  LlvmSession();

  std::vector<service::ActionSpace> getActionSpaces() override;
  std::vector<service::ObservationSpaceInfo> getObservationSpaces() override;
  Status init(const service::ActionSpace &Space,
              const datasets::Benchmark &Bench) override;
  Status applyAction(const service::Action &A, bool &EndOfEpisode,
                     bool &ActionSpaceChanged) override;
  Status computeObservation(const service::ObservationSpaceInfo &Space,
                            service::Observation &Out) override;
  StatusOr<std::unique_ptr<CompilationSession>> fork() override;
  uint64_t stateKey() override;
  bool restore(uint64_t StateKey) override;

  /// Exposed for white-box tests.
  const ir::Module *module() const { return Mod.get(); }
  /// The session's pass manager (analysis-cache telemetry in tests/bench);
  /// nullptr before init().
  passes::PassManager *passManager() { return PM.get(); }

  /// Empties the process-wide parsed-benchmark cache, so the next init()
  /// of each benchmark parses it again (Table II's cold-init ablation).
  static void clearBenchmarkCache();

private:
  Status computeBaselines();
  /// Cooperative-cancellation rollback: reverts the module to the last
  /// state a client saw committed (the last stateKey() exposure, whose
  /// snapshot the store retains) so no partial batch mutation escapes a
  /// cancelled request, then returns DeadlineExceeded carrying \p Why.
  Status cancelRollback(const std::string &Why);
  /// Resets per-episode derived state (pass manager, state key).
  void rebindModule();

  std::vector<std::string> ActionNames;
  std::unique_ptr<ir::Module> Mod;
  /// Stateful pipeline executor bound to Mod (replaces the per-call
  /// runPass free function on the step hot path).
  std::unique_ptr<passes::PassManager> PM;
  datasets::Benchmark Bench;
  Rng NoiseGen{0xB0A710AD};

  /// Module state key, computed lazily; reset when an action changes the
  /// module.
  std::optional<uint64_t> CachedStateKey;
  /// The last state key handed out through stateKey()/restore(): the state
  /// the client believes committed, and the rollback target when a
  /// cancelled action must not leak partial mutations. 0 before the first
  /// exposure (rollback then re-parses the benchmark).
  uint64_t LastExposedKey = 0;

  // Lazily computed -Oz / -O3 baselines for scaled rewards.
  int64_t OzInstructionCount = -1;
  int64_t OzTextSize = -1;
  double O3Runtime = -1.0;
};

} // namespace envs
} // namespace compiler_gym

#endif // COMPILER_GYM_ENVS_LLVM_LLVMSESSION_H
