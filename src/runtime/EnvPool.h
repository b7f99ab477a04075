//===- runtime/EnvPool.h - Vectorized parallel environments -----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EnvPool: a vectorized front-end over M CompilerEnv workers attached to
/// the shards of a ServiceBroker. The pool drives all M environments
/// concurrently on a util::ThreadPool — resetAll() / stepBatch() for
/// lock-step vectorized use (RL), collect() for episode-parallel use,
/// evaluateSequences() / evaluateDirect() for autotuner candidate
/// fan-out from the initial state, and evaluateContinuations() for
/// candidate fan-out from a shared mid-episode prefix (O(1) snapshot
/// forks instead of per-candidate reset+replay). Benchmark lists are
/// sharded across workers via DatasetRegistry, and per-worker episode
/// rewards aggregate into PoolStats. Crash recovery is inherited from the env
/// layer: a worker whose shard dies restores its last snapshot (or
/// replays its episode) on the restarted shard, so a pool run loses no
/// episodes to injected (or real) compiler faults.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_RUNTIME_ENVPOOL_H
#define COMPILER_GYM_RUNTIME_ENVPOOL_H

#include "core/Registry.h"
#include "runtime/ServiceBroker.h"
#include "util/Stats.h"
#include "util/ThreadPool.h"

#include <functional>
#include <memory>
#include <vector>

namespace compiler_gym {
namespace runtime {

struct EnvPoolOptions {
  std::string EnvId = "llvm-v0";
  /// Per-env settings (benchmark/observation/reward/client policy).
  core::MakeOptions Make;
  size_t NumWorkers = 4; ///< M concurrently stepped environments.
  /// Broker configuration. Broker.NumShards == 0 means one shard per
  /// worker (full parallelism); fewer shards co-locate envs per shard.
  BrokerOptions Broker;
  /// Explicit benchmark URIs sharded across workers (worker i cycles
  /// through URIs i, i+M, i+2M, ...). Empty: use DatasetUri, then the
  /// Make/preset default benchmark.
  std::vector<std::string> Benchmarks;
  /// Dataset to shard across workers, e.g. "benchmark://cbench-v1".
  std::string DatasetUri;
  size_t MaxDatasetBenchmarks = 64; ///< Cap when expanding DatasetUri.
};

/// Aggregated cross-worker statistics. Event counts (episodes, steps,
/// recoveries, shard restarts, cache hits) are registry series:
/// cg_pool_episodes_total, cg_pool_steps_total, cg_env_recoveries_total,
/// cg_broker_shard_restarts_total and cg_obs_cache_events_total.
struct PoolStats {
  RunningStat EpisodeReward;
};

/// M environments over N service shards, stepped in parallel.
///
/// Thread-safety: the batch entry points (resetAll, stepBatch, collect,
/// evaluate*) drive the workers on the internal thread pool and must be
/// called from one coordinating thread at a time — concurrent batch calls
/// on the same pool would step the same envs from two threads. Individual
/// worker envs (env(i)) are not thread-safe either; touch them only
/// between batch operations. nextBenchmark() and stats() are safe from any
/// thread.
class EnvPool {
public:
  /// Builds the broker fleet, attaches one CompilerEnv per worker to its
  /// leased shard, and expands/shards the benchmark list.
  static StatusOr<std::unique_ptr<EnvPool>> create(EnvPoolOptions Opts);
  /// Joins the worker thread pool, destroys the envs (ending their backend
  /// sessions), then stops the broker and its monitor thread.
  ~EnvPool();

  EnvPool(const EnvPool &) = delete;
  EnvPool &operator=(const EnvPool &) = delete;

  /// Number of worker environments (M).
  size_t size() const { return Envs.size(); }
  /// Direct access to one worker env (tests, custom drivers). Not
  /// thread-safe against a concurrently running batch operation.
  core::CompilerEnv &env(size_t Worker) { return *Envs[Worker]; }
  /// The shard fleet behind the workers.
  ServiceBroker &broker() { return *Broker; }

  /// Advances worker \p Worker to its next assigned benchmark and returns
  /// the URI ("" when the pool has no benchmark list). Thread-safe.
  std::string nextBenchmark(size_t Worker);

  // -- Vectorized API ---------------------------------------------------------

  /// Resets every worker env concurrently (each on its next benchmark when
  /// a benchmark list is configured). Fails on the first env error.
  StatusOr<std::vector<service::Observation>> resetAll();

  /// Steps every worker env concurrently; Actions[i] is the (batched)
  /// action list for worker i. Requires Actions.size() == size().
  StatusOr<std::vector<core::StepResult>> stepBatch(
      const std::vector<std::vector<int>> &Actions);

  /// Vectorized multi-space step: every worker additionally computes the
  /// named observation and reward spaces, each worker in its single step
  /// RPC (M workers => M RPCs total, regardless of how many spaces).
  StatusOr<std::vector<core::StepResult>> stepBatch(
      const std::vector<std::vector<int>> &Actions,
      const std::vector<std::string> &ObsSpaces,
      const std::vector<std::string> &RewardSpaces = {});

  // -- Episode-parallel API ---------------------------------------------------

  /// Runs one episode on a worker env (already reset; \p InitialObs is the
  /// reset observation). Returning an error aborts the collection.
  using EpisodeFn =
      std::function<Status(size_t Worker, size_t Episode,
                           core::CompilerEnv &E,
                           const service::Observation &InitialObs)>;

  /// Runs \p Episodes episodes across the workers: each worker pulls the
  /// next episode index, advances to its next benchmark, resets, and runs
  /// \p Fn. Returns the first error, after all workers drain.
  Status collect(size_t Episodes, const EpisodeFn &Fn);

  // -- Autotuner fan-out ------------------------------------------------------

  /// Evaluates candidate action sequences in parallel: each candidate runs
  /// reset + one batched step on a worker env; result is the episode
  /// reward, in candidate order.
  StatusOr<std::vector<double>> evaluateSequences(
      const std::vector<std::vector<int>> &Candidates);

  /// Same for direct choice-vector candidates (GCC flag tuning).
  StatusOr<std::vector<double>> evaluateDirect(
      const std::vector<std::vector<int64_t>> &Candidates);

  /// Candidate *continuation* fan-out from \p Parent's current mid-episode
  /// state (the autotuner inner loop): evaluates each candidate action
  /// suffix as if appended to the parent's episode, without re-running the
  /// prefix. Workers fork from the parent's content-addressed snapshot —
  /// an O(1)-in-module-size restore (CompilerEnv::rebase), no prefix
  /// replay — so K candidates cost O(K), not O(K·|episode|·|module|) as
  /// reset+replay would. If the parent is one of this pool's workers, its
  /// slot evaluates on throwaway CompilerEnv::fork() clones instead (same
  /// shard, still O(1)). Returns reward *deltas* relative to the parent
  /// (candidate episodeReward minus the parent's), in candidate order.
  /// The parent is only read, never stepped or mutated; other worker envs
  /// are left at rebased states, so reset them (resetAll / collect)
  /// before lock-step use.
  StatusOr<std::vector<double>> evaluateContinuations(
      core::CompilerEnv &Parent,
      const std::vector<std::vector<int>> &Candidates);

  /// Aggregated statistics snapshot. Safe to call concurrently with batch
  /// operations; a mid-batch snapshot lags the still-running episodes.
  PoolStats stats() const;

private:
  EnvPool(EnvPoolOptions Opts, std::unique_ptr<ServiceBroker> Broker);

  /// Runs Fn(worker) once per worker concurrently; returns first error.
  Status forEachWorker(const std::function<Status(size_t)> &Fn);

  EnvPoolOptions Opts;
  std::unique_ptr<ServiceBroker> Broker;
  std::unique_ptr<ThreadPool> Workers;
  std::vector<std::unique_ptr<core::CompilerEnv>> Envs;
  std::vector<size_t> ShardOf;              ///< Worker -> shard lease.
  std::vector<std::vector<std::string>> BenchmarkSlices; ///< Per worker.
  std::vector<size_t> BenchmarkCursor;      ///< Per worker.
  std::mutex CursorMutex;                   ///< Guards BenchmarkCursor.

  mutable std::mutex StatsMutex;
  PoolStats Aggregate;
};

} // namespace runtime
} // namespace compiler_gym

#endif // COMPILER_GYM_RUNTIME_ENVPOOL_H
