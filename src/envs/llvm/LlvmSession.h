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
/// actions, invalidating only what each pass reports clobbered. Repeated
/// observations of an unchanged module are memoized per session (keyed on
/// an action-epoch counter), and the module StateHash behind stateKey() is
/// cached per epoch so the runtime's shared ObservationCache can
/// deduplicate across sessions without re-walking the module on every
/// request.
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
#include <unordered_map>

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
  /// Memoized-observation hits for this session (test/bench telemetry).
  uint64_t observationMemoHits() const { return ObsMemoHits; }

  /// Process-wide parsed-benchmark cache statistics (Table II ablation).
  static uint64_t cacheHits();
  static uint64_t cacheMisses();
  static void clearBenchmarkCache();

private:
  Status computeBaselines();
  /// Cooperative-cancellation rollback: reverts the module to the last
  /// state a client saw committed (the last stateKey() exposure, whose
  /// snapshot the store retains) so no partial batch mutation escapes a
  /// cancelled request, then returns DeadlineExceeded carrying \p Why.
  Status cancelRollback(const std::string &Why);
  Status computeObservationUncached(int SpaceId,
                                    const service::ObservationSpaceInfo &Space,
                                    service::Observation &Out);
  /// Resets per-episode derived state (pass manager, memo, state key).
  void rebindModule();

  std::vector<std::string> ActionNames;
  std::unique_ptr<ir::Module> Mod;
  /// Stateful pipeline executor bound to Mod (replaces the per-call
  /// runPass free function on the step hot path).
  std::unique_ptr<passes::PassManager> PM;
  datasets::Benchmark Bench;
  Rng NoiseGen{0xB0A710AD};

  /// Monotonic epoch: bumped every time an action changes the module.
  uint64_t ModEpoch = 0;
  /// Module state key, computed lazily once per epoch.
  std::optional<uint64_t> CachedStateKey;
  /// The last state key handed out through stateKey()/restore(): the state
  /// the client believes committed, and the rollback target when a
  /// cancelled action must not leak partial mutations. 0 before the first
  /// exposure (rollback then re-parses the benchmark).
  uint64_t LastExposedKey = 0;
  /// Deterministic observations memoized for the current epoch:
  /// space id -> (epoch, observation).
  std::unordered_map<int, std::pair<uint64_t, service::Observation>> ObsMemo;
  uint64_t ObsMemoHits = 0;

  // Lazily computed -Oz / -O3 baselines for scaled rewards.
  int64_t OzInstructionCount = -1;
  int64_t OzTextSize = -1;
  double O3Runtime = -1.0;
};

} // namespace envs
} // namespace compiler_gym

#endif // COMPILER_GYM_ENVS_LLVM_LLVMSESSION_H
