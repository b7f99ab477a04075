//===- tests/runtime_test.cpp - Parallel runtime subsystem -----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The parallel environment runtime: ServiceBroker shard routing and crash
// recovery at fleet scale, EnvPool vectorized/episode-parallel stepping
// with no episodes lost to injected faults, and the ObservationCache the
// broker shares across its shards.

#include "runtime/EnvPool.h"
#include "runtime/ServiceBroker.h"

#include "core/Registry.h"
#include "envs/llvm/LlvmSession.h"
#include "fault/FaultRegistry.h"
#include "rl/Rollout.h"
#include "telemetry/MetricsRegistry.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

using namespace compiler_gym;
using namespace compiler_gym::runtime;
using service::ObservationCache;

namespace {

/// One crash at service.handle per entry: the I-th rule lets AfterHits[I]
/// of its hits pass, then crashes the service on the next one.
fault::FaultPlanSpec crashAfter(std::initializer_list<uint64_t> AfterHits) {
  fault::FaultPlanSpec Plan;
  for (uint64_t N : AfterHits)
    Plan.Rules.push_back({.Point = "service.handle",
                          .Kind = fault::FaultKind::Crash,
                          .AfterHits = N,
                          .MaxFires = 1});
  return Plan;
}

/// Process-wide series; tests diff them across a window that runs one
/// cache, broker or pool.
telemetry::Counter &series(const std::string &Name,
                           const telemetry::Labels &L = {}) {
  return telemetry::MetricsRegistry::global().counter(Name, L);
}

telemetry::Counter &cacheEvents(const char *Event) {
  return series("cg_obs_cache_events_total", {{"event", Event}});
}

// -- ObservationCache ----------------------------------------------------------

service::Observation intObs(int64_t V) {
  service::Observation Obs;
  Obs.Type = service::ObservationType::Int64Value;
  Obs.IntValue = V;
  return Obs;
}

TEST(ObservationCache, RoundTripAndCounters) {
  telemetry::Counter &HitEvents = cacheEvents("hit");
  telemetry::Counter &MissEvents = cacheEvents("miss");
  const uint64_t Hits0 = HitEvents.value();
  const uint64_t Misses0 = MissEvents.value();
  ObservationCache Cache;
  EXPECT_EQ(Cache.lookup(1, "Autophase"), nullptr);
  EXPECT_EQ(MissEvents.value() - Misses0, 1u);
  Cache.insert(1, "Autophase", intObs(42));
  auto Hit = Cache.lookup(1, "Autophase");
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->IntValue, 42);
  EXPECT_EQ(HitEvents.value() - Hits0, 1u);
  // Same state, different space: distinct entry.
  EXPECT_EQ(Cache.lookup(1, "InstCount"), nullptr);
  // Different state, same space: distinct entry.
  EXPECT_EQ(Cache.lookup(2, "Autophase"), nullptr);
  EXPECT_EQ(Cache.size(), 1u);
  // A second insert of a stored key keeps (and returns) the first value.
  EXPECT_EQ(Cache.insert(1, "Autophase", intObs(7))->IntValue, 42);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(ObservationCache, LruEvictsColdEntries) {
  telemetry::Counter &EvictEvents = cacheEvents("eviction");
  const uint64_t Evictions0 = EvictEvents.value();
  ObservationCache Cache;
  // Twice the fixed capacity, with one hot entry touched after every
  // insert: the cache overflows, evicting its least recently used
  // entries, and never the hot one.
  constexpr uint64_t Hot = 1;
  Cache.insert(Hot, "S", intObs(-1));
  constexpr size_t Inserts = 2 * ObservationCache::MaxEntries;
  for (size_t I = 0; I < Inserts; ++I) {
    Cache.insert(I + 100, "S", intObs(static_cast<int64_t>(I)));
    ASSERT_NE(Cache.lookup(Hot, "S"), nullptr) << "after insert " << I;
  }
  EXPECT_EQ(Cache.size(), ObservationCache::MaxEntries);
  EXPECT_EQ(EvictEvents.value() - Evictions0, Inserts + 1 - Cache.size());
  EXPECT_EQ(Cache.lookup(100, "S"), nullptr); // Oldest: evicted.
  auto Newest = Cache.lookup(Inserts + 99, "S");
  ASSERT_NE(Newest, nullptr);
  EXPECT_EQ(Newest->IntValue, static_cast<int64_t>(Inserts - 1));
}

TEST(ObservationCache, ByteBoundKeepsOversizedEntries) {
  telemetry::Counter &EvictEvents = cacheEvents("eviction");
  const uint64_t Evictions0 = EvictEvents.value();
  ObservationCache Cache;
  auto bytesObs = [](size_t Size, char Fill) {
    service::Observation Obs;
    Obs.Type = service::ObservationType::Binary;
    Obs.Str.assign(Size, Fill);
    return Obs;
  };
  constexpr size_t MiB = size_t(1) << 20;
  constexpr size_t Budget = ObservationCache::MaxBytes;
  // 1 MiB values: 96 MiB inserted, at most 64 MiB retained, and the
  // entry bound is nowhere near.
  for (uint64_t K = 1; K <= 96; ++K) {
    Cache.insert(K, "Programl", bytesObs(MiB, 'a'));
    EXPECT_LE(Cache.bytes(), Budget);
  }
  EXPECT_GT(EvictEvents.value(), Evictions0);
  EXPECT_LT(Cache.size(), 96u);
  // A value past the whole 64 MiB budget evicts every other entry and is
  // kept as the only one, so it is still retrievable.
  const size_t Before = Cache.size();
  const uint64_t Evictions1 = EvictEvents.value();
  Cache.insert(1000, "Inst2vec", bytesObs(Budget + MiB, 'b'));
  EXPECT_EQ(EvictEvents.value() - Evictions1, Before);
  EXPECT_EQ(Cache.size(), 1u);
  auto Big = Cache.lookup(1000, "Inst2vec");
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(Big->Str.size(), Budget + MiB);
  EXPECT_GT(Cache.bytes(), Budget);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.bytes(), 0u);
}

TEST(ObservationCache, ConcurrentMixedTrafficIsSafe) {
  telemetry::Counter &HitEvents = cacheEvents("hit");
  telemetry::Counter &MissEvents = cacheEvents("miss");
  const uint64_t Lookups0 = HitEvents.value() + MissEvents.value();
  ObservationCache Cache;
  constexpr int NumThreads = 4;
  constexpr int OpsPerThread = 6000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Cache, T] {
      for (int I = 0; I < OpsPerThread; ++I) {
        // More distinct keys than the fixed capacity, so the cache also
        // evicts under contention.
        uint64_t Key = static_cast<uint64_t>((T * 31 + I) % 6007 + 1);
        if (I % 3 == 0) {
          Cache.insert(Key, "S", intObs(static_cast<int64_t>(Key)));
        } else if (auto Hit = Cache.lookup(Key, "S")) {
          // An entry under key K must carry K's payload, however the
          // interleaving went.
          EXPECT_EQ(Hit->IntValue, static_cast<int64_t>(Key));
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LE(Cache.size(), ObservationCache::MaxEntries);
  // Each thread performs one lookup per op where I % 3 != 0.
  constexpr uint64_t LookupsPerThread =
      OpsPerThread - (OpsPerThread + 2) / 3;
  EXPECT_EQ(HitEvents.value() + MissEvents.value() - Lookups0,
            NumThreads * LookupsPerThread);
}

// -- ServiceBroker -------------------------------------------------------------

TEST(ServiceBroker, LeastLoadedRouting) {
  BrokerOptions Opts;
  Opts.NumShards = 3;
  Opts.MonitorIntervalMs = 0;
  ServiceBroker Broker(Opts);
  // Six acquisitions spread evenly over three shards.
  std::map<size_t, int> Counts;
  std::vector<size_t> Leases;
  for (int I = 0; I < 6; ++I) {
    size_t S = Broker.acquireShard();
    Leases.push_back(S);
    ++Counts[S];
  }
  EXPECT_EQ(Counts.size(), 3u);
  for (const auto &[Shard, Count] : Counts)
    EXPECT_EQ(Count, 2) << "shard " << Shard;
  for (size_t S : Leases)
    Broker.releaseShard(S);
  for (size_t I = 0; I < Broker.numShards(); ++I)
    EXPECT_EQ(Broker.shardLoad(I), 0u);
}

TEST(ServiceBroker, SweepRestartsCrashedShards) {
  envs::registerLlvmEnvironment();
  BrokerOptions Opts;
  Opts.NumShards = 2;
  Opts.MonitorIntervalMs = 0; // Manual sweeps.
  telemetry::Counter &Restarted = series("cg_broker_shard_restarts_total");
  const uint64_t RestartsBefore = Restarted.value();
  ServiceBroker Broker(Opts);
  fault::ScopedFaultPlan Armed(crashAfter({2}));
  auto Client = Broker.makeClient(0);
  EXPECT_TRUE(Client->heartbeat().isOk());
  EXPECT_TRUE(Client->heartbeat().isOk());
  EXPECT_FALSE(Client->heartbeat().isOk()); // Third op: crashed.
  ASSERT_TRUE(Broker.shardService(0)->crashed());
  EXPECT_FALSE(Broker.shardService(1)->crashed());

  EXPECT_EQ(Broker.checkShards(), 1u);
  EXPECT_EQ(Restarted.value() - RestartsBefore, 1u);
  EXPECT_FALSE(Broker.shardService(0)->crashed());
  EXPECT_TRUE(Client->heartbeat().isOk());
  EXPECT_EQ(Broker.checkShards(), 0u); // Healthy fleet: no-op.
}

TEST(ServiceBroker, MonitorThreadRestartsCrashedShardUnprompted) {
  envs::registerLlvmEnvironment();
  BrokerOptions Opts;
  Opts.NumShards = 1;
  Opts.MonitorIntervalMs = 5;
  telemetry::Counter &Restarted = series("cg_broker_shard_restarts_total");
  const uint64_t RestartsBefore = Restarted.value();
  ServiceBroker Broker(Opts);
  fault::ScopedFaultPlan Armed(crashAfter({1}));
  auto Client = Broker.makeClient(0);
  EXPECT_TRUE(Client->heartbeat().isOk());
  EXPECT_FALSE(Client->heartbeat().isOk()); // Crashes the shard.
  // The monitor notices and restarts without any client intervention.
  for (int I = 0; I < 200 && Broker.shardService(0)->crashed(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(Broker.shardService(0)->crashed());
  EXPECT_GE(Restarted.value() - RestartsBefore, 1u);
}

// -- Shared-shard environments -------------------------------------------------

TEST(SharedShard, EnvsSurviveEachOthersRecoveries) {
  // Two envs on ONE shard with a crashy service: each recovery restarts
  // the shared service, killing the sibling's session. Both must finish
  // their episodes with state identical to a fault-free run.
  core::MakeOptions MO;
  MO.Benchmark = "benchmark://cbench-v1/crc32";
  MO.ObservationSpace = "none";
  MO.RewardSpace = "none";
  auto EnvOpts = core::resolveMakeOptions("llvm-v0", MO);
  ASSERT_TRUE(EnvOpts.isOk());

  // Fault-free references on private services, run to completion before
  // the process-wide plan is armed.
  auto RefA = core::make("llvm-v0", MO);
  auto RefB = core::make("llvm-v0", MO);
  ASSERT_TRUE(RefA.isOk());
  ASSERT_TRUE(RefB.isOk());
  ASSERT_TRUE((*RefA)->reset().isOk());
  ASSERT_TRUE((*RefB)->reset().isOk());
  for (int Step = 0; Step < 8; ++Step) {
    ASSERT_TRUE((*RefA)->step(Step % 5).isOk());
    ASSERT_TRUE((*RefB)->step((Step + 2) % 5).isOk());
  }
  auto HashRefA = (*RefA)->observation()["IrHash"];
  auto HashRefB = (*RefB)->observation()["IrHash"];
  ASSERT_TRUE(HashRefA.isOk());
  ASSERT_TRUE(HashRefB.isOk());

  BrokerOptions BO;
  BO.NumShards = 1;
  BO.MonitorIntervalMs = 0; // Recovery driven purely by the envs.
  telemetry::Counter &Recovered = series("cg_env_recoveries_total");
  const uint64_t RecoveriesBefore = Recovered.value();
  ServiceBroker Broker(BO);
  fault::ScopedFaultPlan Armed(crashAfter({5, 12, 19}));
  auto A = core::CompilerEnv::attach(*EnvOpts, Broker.shardService(0),
                                     Broker.shardTransport(0));
  auto B = core::CompilerEnv::attach(*EnvOpts, Broker.shardService(0),
                                     Broker.shardTransport(0));
  ASSERT_TRUE(A.isOk());
  ASSERT_TRUE(B.isOk());
  ASSERT_TRUE((*A)->reset().isOk());
  ASSERT_TRUE((*B)->reset().isOk());
  for (int Step = 0; Step < 8; ++Step) {
    auto RA = (*A)->step(Step % 5);
    ASSERT_TRUE(RA.isOk()) << "A step " << Step << ": "
                           << RA.status().toString();
    auto RB = (*B)->step((Step + 2) % 5);
    ASSERT_TRUE(RB.isOk()) << "B step " << Step << ": "
                           << RB.status().toString();
  }
  EXPECT_GE(Recovered.value() - RecoveriesBefore, 1u);

  auto HashA = (*A)->observation()["IrHash"];
  ASSERT_TRUE(HashA.isOk());
  EXPECT_EQ(HashA->raw().Str, HashRefA->raw().Str);
  auto HashB = (*B)->observation()["IrHash"];
  ASSERT_TRUE(HashB.isOk());
  EXPECT_EQ(HashB->raw().Str, HashRefB->raw().Str);
}

// -- EnvPool -------------------------------------------------------------------

EnvPoolOptions smokePoolOptions(size_t Workers) {
  EnvPoolOptions Opts;
  Opts.EnvId = "llvm-v0";
  Opts.Make.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.Make.ObservationSpace = "Autophase";
  Opts.Make.RewardSpace = "IrInstructionCount";
  Opts.NumWorkers = Workers;
  Opts.Broker.MonitorIntervalMs = 0;
  return Opts;
}

TEST(EnvPool, ResetAllAndStepBatch) {
  telemetry::Counter &Steps = series("cg_pool_steps_total");
  const uint64_t StepsBefore = Steps.value();
  auto Pool = EnvPool::create(smokePoolOptions(3));
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  EXPECT_EQ((*Pool)->size(), 3u);
  auto Obs = (*Pool)->resetAll();
  ASSERT_TRUE(Obs.isOk()) << Obs.status().toString();
  ASSERT_EQ(Obs->size(), 3u);
  for (const service::Observation &O : *Obs)
    EXPECT_FALSE(O.Ints.empty()); // Autophase vectors.

  std::vector<std::vector<int>> Actions(3);
  for (size_t W = 0; W < 3; ++W)
    Actions[W] = {static_cast<int>(W), 1};
  auto Results = (*Pool)->stepBatch(Actions);
  ASSERT_TRUE(Results.isOk()) << Results.status().toString();
  ASSERT_EQ(Results->size(), 3u);
  EXPECT_EQ(Steps.value() - StepsBefore, 6u);

  auto Bad = (*Pool)->stepBatch({{0}});
  EXPECT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), StatusCode::InvalidArgument);
}

TEST(EnvPool, ShardsBenchmarksAcrossWorkers) {
  EnvPoolOptions Opts = smokePoolOptions(2);
  Opts.Benchmarks = {
      "benchmark://cbench-v1/crc32", "benchmark://cbench-v1/sha",
      "benchmark://cbench-v1/qsort", "benchmark://cbench-v1/dijkstra"};
  auto Pool = EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  // Worker 0 cycles {crc32, qsort}; worker 1 cycles {sha, dijkstra}.
  EXPECT_EQ((*Pool)->nextBenchmark(0), "benchmark://cbench-v1/crc32");
  EXPECT_EQ((*Pool)->nextBenchmark(1), "benchmark://cbench-v1/sha");
  EXPECT_EQ((*Pool)->nextBenchmark(0), "benchmark://cbench-v1/qsort");
  EXPECT_EQ((*Pool)->nextBenchmark(1), "benchmark://cbench-v1/dijkstra");
  EXPECT_EQ((*Pool)->nextBenchmark(0), "benchmark://cbench-v1/crc32");
}

TEST(EnvPool, DatasetExpansion) {
  EnvPoolOptions Opts = smokePoolOptions(2);
  Opts.DatasetUri = "benchmark://cbench-v1";
  Opts.MaxDatasetBenchmarks = 6;
  auto Pool = EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  std::string First = (*Pool)->nextBenchmark(0);
  EXPECT_EQ(First.rfind("benchmark://cbench-v1/", 0), 0u);

  EnvPoolOptions BadOpts = smokePoolOptions(1);
  BadOpts.DatasetUri = "benchmark://no-such-dataset";
  auto Bad = EnvPool::create(BadOpts);
  ASSERT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), StatusCode::NotFound);
}

TEST(EnvPool, ObservationCacheDeduplicatesAcrossWorkers) {
  EnvPoolOptions Opts = smokePoolOptions(4);
  // All four workers repeatedly reset the same benchmark and request the
  // same Autophase observation of the same initial state.
  telemetry::Counter &HitEvents = cacheEvents("hit");
  telemetry::Counter &MissEvents = cacheEvents("miss");
  const uint64_t Hits0 = HitEvents.value();
  const uint64_t Misses0 = MissEvents.value();
  auto Pool = EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  for (int Round = 0; Round < 3; ++Round)
    ASSERT_TRUE((*Pool)->resetAll().isOk());
  EXPECT_GT(HitEvents.value(), Hits0);
  EXPECT_GT(MissEvents.value(), Misses0);
}

TEST(EnvPool, FaultInjectedCollectLosesNoEpisodes) {
  // The acceptance scenario: a crashy shard fleet must still complete
  // every scheduled episode, with rewards identical to a fault-free run.
  constexpr size_t Episodes = 8;
  const std::vector<int> EpisodeActions = {0, 1, 2, 3, 0, 1};

  // Reference rewards from a fault-free single env.
  core::MakeOptions MO;
  MO.Benchmark = "benchmark://cbench-v1/crc32";
  MO.ObservationSpace = "none";
  MO.RewardSpace = "IrInstructionCount";
  auto Ref = core::make("llvm-v0", MO);
  ASSERT_TRUE(Ref.isOk());
  ASSERT_TRUE((*Ref)->reset().isOk());
  ASSERT_TRUE((*Ref)->step(EpisodeActions).isOk());
  const double ExpectedReward = (*Ref)->episodeReward();

  EnvPoolOptions Opts;
  Opts.EnvId = "llvm-v0";
  Opts.Make = MO;
  Opts.NumWorkers = 4;
  Opts.Broker.NumShards = 2; // Two envs share each crashing shard.
  Opts.Broker.MonitorIntervalMs = 5;
  telemetry::Counter &EpisodesDone = series("cg_pool_episodes_total");
  telemetry::Counter &Recovered = series("cg_env_recoveries_total");
  telemetry::Counter &Restarted = series("cg_broker_shard_restarts_total");
  const uint64_t EpisodesBefore = EpisodesDone.value();
  const uint64_t FaultsBefore = Recovered.value() + Restarted.value();
  auto Pool = EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  fault::ScopedFaultPlan Armed(crashAfter({9, 30, 60}));

  std::vector<double> Rewards(Episodes, -1.0);
  Status S = (*Pool)->collect(
      Episodes,
      [&](size_t, size_t Episode, core::CompilerEnv &E,
          const service::Observation &) -> Status {
        CG_ASSIGN_OR_RETURN(core::StepResult R, E.step(EpisodeActions));
        (void)R;
        Rewards[Episode] = E.episodeReward();
        return Status::ok();
      });
  ASSERT_TRUE(S.isOk()) << S.toString();

  EXPECT_EQ(EpisodesDone.value() - EpisodesBefore, Episodes); // None lost.
  for (size_t I = 0; I < Episodes; ++I)
    EXPECT_DOUBLE_EQ(Rewards[I], ExpectedReward) << "episode " << I;
  // The fleet really did crash and recover along the way.
  EXPECT_GE(Recovered.value() + Restarted.value() - FaultsBefore, 1u);
}

TEST(EnvPool, ParallelRolloutCollectsFullTrajectories) {
  EnvPoolOptions Opts = smokePoolOptions(2);
  auto Pool = EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  size_t NumActions = 0;
  {
    auto Obs = (*Pool)->resetAll();
    ASSERT_TRUE(Obs.isOk());
    NumActions = (*Pool)->env(0).actionSpace().size();
  }
  ASSERT_GT(NumActions, 0u);
  rl::PolicyFn Policy = [NumActions](const std::vector<float> &) {
    return std::vector<float>(NumActions, 0.0f); // Uniform.
  };
  auto Trajs = rl::collectEpisodes(**Pool, Policy, nullptr, /*MaxSteps=*/5,
                                   /*Episodes=*/6, /*Seed=*/7);
  ASSERT_TRUE(Trajs.isOk()) << Trajs.status().toString();
  ASSERT_EQ(Trajs->size(), 6u);
  for (const rl::Trajectory &T : *Trajs) {
    EXPECT_GT(T.length(), 0u);
    EXPECT_LE(T.length(), 5u);
    EXPECT_EQ(T.Observations.size(), T.Actions.size());
    EXPECT_EQ(T.Rewards.size(), T.Actions.size());
  }
}

} // namespace
