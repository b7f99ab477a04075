//===- core/CompilerEnv.h - The client-side environment ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompilerEnv: the frontend environment over a compiler service — the
/// C++ analogue of the paper's Listing 1 object. It owns the RPC client,
/// surfaces the backend's typed space catalogue through the views API,
/// computes rewards from backend observations, tracks episode state, and
/// implements the runtime's fault-tolerance contract: when the backend
/// crashes or hangs, the env restarts the service and replays its action
/// history transparently (§IV-B).
///
/// A step() can request any number of observation spaces and reward
/// spaces; everything — actions, observations, reward metrics — travels in
/// a single RPC, and the results land in the view caches so post-step
/// queries are free.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_CORE_COMPILERENV_H
#define COMPILER_GYM_CORE_COMPILERENV_H

#include "core/Env.h"
#include "core/EnvState.h"
#include "core/Space.h"
#include "service/ServiceClient.h"

#include <memory>
#include <optional>
#include <unordered_map>

namespace compiler_gym {
namespace core {

/// Construction options (the keyword arguments of make()).
struct CompilerEnvOptions {
  std::string CompilerName = "llvm";  ///< Backend service name.
  std::string EnvId = "llvm-v0";      ///< Frontend identifier.
  std::string BenchmarkUri = "benchmark://cbench-v1/qsort";
  std::string ObservationSpace = "Autophase"; ///< Default obs; "" = none.
  std::string RewardSpace = "IrInstructionCount"; ///< "" = no reward.
  std::string ActionSpaceName;        ///< "" = backend default.
  service::ClientOptions Client;
};

/// The concrete Gym environment over a compiler service.
class CompilerEnv : public Env {
public:
  /// Creates an env with a dedicated backend service (one "process").
  static StatusOr<std::unique_ptr<CompilerEnv>>
  create(const CompilerEnvOptions &Opts);

  /// Attaches an env to an existing service shard (runtime::ServiceBroker):
  /// the service and transport are shared with other environments, but the
  /// env gets a private ServiceClient so call policy and telemetry stay
  /// per-env. Shared-service envs treat "session vanished" (another env or
  /// the broker restarted the shard) as recoverable: they re-establish the
  /// session and replay their action history instead of failing.
  static StatusOr<std::unique_ptr<CompilerEnv>>
  attach(const CompilerEnvOptions &Opts,
         std::shared_ptr<service::CompilerService> Service,
         std::shared_ptr<service::Transport> Channel);

  /// Connects an env to a remote service over \p Channel (typically a
  /// net::SocketTransport dialed at a gateway or standalone server). The
  /// env has no in-process service handle: crash recovery degrades to
  /// session re-establishment (snapshot restore, then action replay) and
  /// never attempts a local restart — the far end heals itself. Auth, if
  /// any, rides in Opts.Client.AuthToken.
  static StatusOr<std::unique_ptr<CompilerEnv>>
  connect(const CompilerEnvOptions &Opts,
          std::shared_ptr<service::Transport> Channel);

  ~CompilerEnv() override;

  // -- Env interface ---------------------------------------------------------
  using Env::step;
  StatusOr<service::Observation> reset() override;
  StatusOr<StepResult> step(const std::vector<int> &Actions) override;
  const service::ActionSpace &actionSpace() const override { return Space; }
  size_t episodeLength() const override { return State.Actions.size(); }
  double episodeReward() const override { return State.CumulativeReward; }
  uint64_t stateEpoch() const override { return Epoch; }
  StatusOr<std::vector<service::Observation>>
  rawObservations(const std::vector<std::string> &Spaces) override;

  // -- Multi-space steps (§III-B5) -------------------------------------------
  /// Applies the actions and additionally returns the named observation
  /// spaces (backend or derived) and reward spaces, all computed against
  /// the post-step state in the same single RPC.
  StatusOr<StepResult>
  step(const std::vector<int> &Actions,
       const std::vector<std::string> &ObsSpaces,
       const std::vector<std::string> &RewardSpaces = {});

  /// Steps the GCC-style direct action space: one action carrying a full
  /// choice vector. Supports the same multi-space selection as step().
  StatusOr<StepResult>
  stepDirect(const std::vector<int64_t> &Choices,
             const std::vector<std::string> &ObsSpaces = {},
             const std::vector<std::string> &RewardSpaces = {});

  // -- CompilerGym extensions -------------------------------------------------
  /// Switches benchmark for the next reset(). The switch is *pending* until
  /// reset() applies it: benchmark() keeps reporting the URI the episode
  /// actually runs on (recovery replays also use the applied URI).
  void setBenchmark(const std::string &Uri) { PendingBenchmarkUri = Uri; }
  /// The benchmark the current episode runs on (the last applied URI).
  const std::string &benchmark() const { return Opts.BenchmarkUri; }
  /// The URI the next reset() will switch to.
  const std::string &pendingBenchmark() const { return PendingBenchmarkUri; }

  /// Switches the default observation space returned by reset()/step().
  Status setObservationSpace(const std::string &Name);
  const std::string &observationSpace() const {
    return Opts.ObservationSpace;
  }

  /// Switches the active reward space (takes effect immediately). Switching
  /// mid-episode re-primes the space's bookkeeping from a fresh metric
  /// observation, so the next step's delta is relative to the current
  /// state, never to another metric's last value.
  Status setRewardSpace(const std::string &Name);
  const std::string &rewardSpace() const { return Opts.RewardSpace; }

  /// Lightweight deep copy (§III-B6): the backend forks the session; the
  /// clone shares the service but owns independent state, including copies
  /// of the space registry, view caches and reward bookkeeping.
  StatusOr<std::unique_ptr<CompilerEnv>> fork();

  /// Cross-service fork: re-points this env at \p Parent's exact state —
  /// benchmark, episode history, reward bookkeeping and view caches —
  /// without stepping the parent. Starts a fresh session restored from the
  /// parent's content-addressed snapshot (O(1) in module size, zero
  /// actions replayed); when no snapshot survives, falls back to replaying
  /// the parent's action history. Unlike fork(), which shares the parent's
  /// service and client, rebase() keeps this env's own service/client, so
  /// rebased envs step concurrently with each other and with the parent
  /// (EnvPool candidate fan-out). The parent is only read, never mutated,
  /// and concurrent rebases from one parent are safe.
  Status rebase(CompilerEnv &Parent);

  /// Current serializable episode state.
  const EnvState &state() const { return State; }

  /// Writes the current IR ("Ir" observation) to \p Path, the analogue of
  /// env.write_bitcode() in Listing 1.
  Status writeIr(const std::string &Path);

  service::ServiceClient &client() { return *Client; }

private:
  CompilerEnv(CompilerEnvOptions Opts,
              std::shared_ptr<service::CompilerService> Service,
              std::shared_ptr<service::ServiceClient> Client);

  /// The backend spaces one step RPC must carry, plus the requested
  /// obs/reward space lists it will demux afterwards.
  struct StepPlan {
    std::vector<std::string> Wire; ///< Deduped backend spaces for the RPC.
    std::vector<std::string> ObsSpaces;
    std::vector<std::string> RewardSpaces;
  };

  /// Validates the requested spaces and computes the wire set: the default
  /// observation space, every requested observation space's backend
  /// closure, and each reward space's metric (plus baseline while the
  /// space is unprimed).
  StatusOr<StepPlan> planStep(const std::vector<std::string> &ObsSpaces,
                              const std::vector<std::string> &RewardSpaces);

  /// Starts a backend session for the applied benchmark and refreshes the
  /// registry's backend space catalogue. A nonzero \p RestoreStateKey asks
  /// the backend to restore that snapshot state; \p Restored (optional)
  /// reports whether it did — when false the session sits at the initial
  /// state and the caller must replay.
  Status startSession(uint64_t RestoreStateKey = 0, bool *Restored = nullptr);

  /// Restarts the crashed/hung service and re-establishes the episode
  /// state: from the backend's snapshot of the last step's state key when
  /// one survives (zero actions replayed), else by replaying the episode.
  Status recover();

  /// Replays the committed episode history (DirectHistory, else
  /// State.Actions) on the current session in one observation-free batched
  /// step: the fallback when no snapshot of the state survives.
  Status replayHistory();

  /// Issues \p Req with recovery-and-retry: a recoverable failure
  /// (crash/hang/session loss) restarts the service, replays the episode,
  /// refreshes the session id and retries, for a few rounds. A request
  /// with actions that fails for good first resynchronizes the session to
  /// the committed history, since the backend may have applied some of
  /// them. The single copy of the recovery-retry invariant for step-shaped
  /// RPCs. Also the single copy of the wire-delta handshake: retained base
  /// keys are advertised on the request, and delta replies are
  /// reconstructed to full observations before the reply is returned.
  StatusOr<service::StepReply> callStepWithRecovery(service::StepRequest Req);

  /// Reconstructs delta-encoded reply observations against WireBases and
  /// retains each delta-eligible full value (with its state key) as the
  /// base for the next request.
  Status settleWireObservations(service::StepReply &Reply);

  /// Issues one step RPC (actions + the plan's wire spaces) with
  /// recovery-and-retry. On return the actions have been applied by the
  /// backend — callers commit them to the episode history *before*
  /// demuxing, so a failing derived-space computation cannot desync the
  /// recorded episode from the live session.
  StatusOr<service::StepReply>
  stepRpcWithRecovery(std::vector<service::Action> Actions,
                      const StepPlan &Plan);

  /// Advances the epoch (when actions ran), primes the observation view
  /// from the reply, and demuxes the default observation, the requested
  /// spaces and — when \p SettleRewards — the active + requested reward
  /// spaces. reset() passes false: it primes bookkeeping instead, so
  /// absolute reward spaces (loop_tool FLOPs) do not pay their initial
  /// measurement into the episode reward.
  StatusOr<StepResult> demuxReply(service::StepReply Reply,
                                  const StepPlan &Plan, bool HadActions,
                                  bool SettleRewards);

  CompilerEnvOptions Opts;
  std::shared_ptr<service::CompilerService> Service;
  std::shared_ptr<service::ServiceClient> Client;
  service::ActionSpace Space;
  uint64_t SessionId = 0;
  bool SessionLive = false;
  EnvState State;
  /// Bumped on reset and every state-changing step; the views key their
  /// caches on it.
  uint64_t Epoch = 0;
  bool SharedService = false; ///< attach()-ed to a broker shard.
  std::string PendingBenchmarkUri; ///< Applied by the next reset().
  std::vector<service::Action> DirectHistory; ///< For replay (direct space).
  /// SessionStateKey of the last committed step reply (content-addressed).
  /// Names the snapshot a recovery restores instead of replaying; 0 until
  /// the first step (or when the backend has no state identity).
  uint64_t LastStateKey = 0;
  std::optional<datasets::Benchmark> CachedBenchmark; ///< Resolve cache.
  /// Client half of the wire-delta handshake: per delta-eligible space,
  /// the newest full observation received, carrying its StateKey. Keys are
  /// content-addressed (module hash + benchmark URI), so entries stay
  /// valid across fork(), reset() to the same benchmark, and
  /// crash-recovery replay.
  std::unordered_map<std::string, service::Observation> WireBases;
};

} // namespace core
} // namespace compiler_gym

#endif // COMPILER_GYM_CORE_COMPILERENV_H
