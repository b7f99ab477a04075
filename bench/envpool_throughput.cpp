//===- bench/envpool_throughput.cpp - Parallel runtime scaling -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregate environment throughput of the parallel runtime: steps/sec of
/// a single CompilerEnv vs. an EnvPool at increasing worker counts, on the
/// same workload, with and without injected backend faults. Each worker
/// env routes to its own service shard (its own dispatcher thread), so on
/// P-core hardware aggregate throughput should scale toward min(P, workers)
/// times the single-env rate. The faulted run demonstrates that a crashing
/// shard fleet stays productive: every episode completes through the
/// restart-and-replay path at a bounded throughput cost.
///
/// Shape checks scale with the parallelism actually available: on >=8-core
/// hardware we require the paper-style >=4x aggregate speedup at 8
/// workers; on smaller boxes (including 1-core CI runners, where the
/// workload is CPU-bound and cannot speed up at all) we require only that
/// the pool is not pathologically slower and that no work is lost.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"
#include "core/Registry.h"
#include "fault/FaultRegistry.h"
#include "runtime/EnvPool.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Rng.h"
#include "util/Timer.h"

#include <algorithm>
#include <thread>

using namespace compiler_gym;
using namespace compiler_gym::runtime;

namespace {

constexpr const char *kBenchmark = "benchmark://cbench-v1/crc32";

/// One episode of this workload: reset + StepsPerEpisode single steps.
constexpr int kStepsPerEpisode = 12;

core::MakeOptions workloadOptions() {
  core::MakeOptions Opts;
  Opts.Benchmark = kBenchmark;
  Opts.ObservationSpace = "Autophase";
  Opts.RewardSpace = "IrInstructionCount";
  return Opts;
}

/// Episodes/sec * steps of a single env stepped sequentially.
double singleEnvStepsPerSec(int Episodes) {
  auto Env = core::make("llvm-v0", workloadOptions());
  if (!Env.isOk()) {
    std::fprintf(stderr, "env setup failed: %s\n",
                 Env.status().toString().c_str());
    std::exit(1);
  }
  Rng Gen(1);
  Stopwatch Watch;
  size_t Steps = 0;
  for (int E = 0; E < Episodes; ++E) {
    if (!(*Env)->reset().isOk())
      std::exit(1);
    size_t NumActions = (*Env)->actionSpace().size();
    for (int S = 0; S < kStepsPerEpisode; ++S) {
      auto R = (*Env)->step(static_cast<int>(Gen.bounded(NumActions)));
      if (!R.isOk())
        std::exit(1);
      ++Steps;
    }
  }
  return static_cast<double>(Steps) / (Watch.elapsedMs() / 1000.0);
}

struct PoolRun {
  double StepsPerSec = 0.0;
  uint64_t Episodes = 0;
  uint64_t EnvRecovered = 0;
  uint64_t ShardsRestarted = 0;
  uint64_t ObsCacheHits = 0;
};

/// The registry series a pool run reports; one run is in flight at a time,
/// so a diff across the run is that run's count.
struct PoolCounts {
  uint64_t Steps, Episodes, EnvRecovered, ShardsRestarted, ObsCacheHits;

  static PoolCounts now() {
    telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
    return {M.counter("cg_pool_steps_total").value(),
            M.counter("cg_pool_episodes_total").value(),
            M.counter("cg_env_recoveries_total").value(),
            M.counter("cg_broker_shard_restarts_total").value(),
            M.counter("cg_obs_cache_events_total", {{"event", "hit"}})
                .value()};
  }
};

/// Aggregate steps/sec of an EnvPool collecting the same workload. With
/// \p Crashy, every backend operation crashes its shard with probability
/// 1/40, for the whole run.
PoolRun poolStepsPerSec(size_t Workers, int Episodes, bool Crashy) {
  EnvPoolOptions Opts;
  Opts.EnvId = "llvm-v0";
  Opts.Make = workloadOptions();
  Opts.NumWorkers = Workers;
  Opts.Broker.MonitorIntervalMs = Crashy ? 5 : 0;
  fault::FaultPlanSpec Plan;
  if (Crashy)
    Plan.Rules.push_back({.Point = "service.handle",
                          .Kind = fault::FaultKind::Crash,
                          .Probability = 1.0 / 40});
  fault::ScopedFaultPlan Armed(Plan);
  const PoolCounts Before = PoolCounts::now();
  auto Pool = EnvPool::create(Opts);
  if (!Pool.isOk()) {
    std::fprintf(stderr, "pool setup failed: %s\n",
                 Pool.status().toString().c_str());
    std::exit(1);
  }
  Stopwatch Watch;
  Status S = (*Pool)->collect(
      static_cast<size_t>(Episodes),
      [](size_t Worker, size_t, core::CompilerEnv &E,
         const service::Observation &) -> Status {
        Rng Gen(0xC0FFEE + Worker);
        size_t NumActions = E.actionSpace().size();
        for (int Step = 0; Step < kStepsPerEpisode; ++Step) {
          CG_ASSIGN_OR_RETURN(
              core::StepResult R,
              E.step(static_cast<int>(Gen.bounded(NumActions))));
          (void)R;
        }
        return Status::ok();
      });
  double Seconds = Watch.elapsedMs() / 1000.0;
  if (!S.isOk()) {
    std::fprintf(stderr, "pool run failed: %s\n", S.toString().c_str());
    std::exit(1);
  }
  const PoolCounts After = PoolCounts::now();
  PoolRun Out;
  Out.StepsPerSec = static_cast<double>(After.Steps - Before.Steps) / Seconds;
  Out.Episodes = After.Episodes - Before.Episodes;
  Out.EnvRecovered = After.EnvRecovered - Before.EnvRecovered;
  Out.ShardsRestarted = After.ShardsRestarted - Before.ShardsRestarted;
  Out.ObsCacheHits = After.ObsCacheHits - Before.ObsCacheHits;
  return Out;
}

} // namespace

int main() {
  bench::banner("envpool_throughput",
                "EnvPool + ServiceBroker aggregate stepping throughput");
  const int Episodes = bench::scaled(24, 160);
  const unsigned HwThreads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads: %u\n\n", HwThreads);

  double Single = singleEnvStepsPerSec(Episodes);
  std::printf("%-34s %10.1f steps/s  (x1.00)\n", "single env (baseline)",
              Single);

  const size_t WorkerCounts[] = {2, 4, 8};
  double SpeedupAt2 = 0.0;
  double SpeedupAt8 = 0.0;
  uint64_t EpisodesAt8 = 0;
  for (size_t Workers : WorkerCounts) {
    PoolRun Run = poolStepsPerSec(Workers, Episodes, /*Crashy=*/false);
    double Speedup = Run.StepsPerSec / Single;
    if (Workers == 2)
      SpeedupAt2 = Speedup;
    if (Workers == 8) {
      SpeedupAt8 = Speedup;
      EpisodesAt8 = Run.Episodes;
    }
    char Label[64];
    std::snprintf(Label, sizeof(Label), "pool %zu workers", Workers);
    std::printf("%-34s %10.1f steps/s  (x%.2f)  cache hits=%llu\n", Label,
                Run.StepsPerSec, Speedup,
                static_cast<unsigned long long>(Run.ObsCacheHits));
  }

  // Faulted fleet: every shard crashes repeatedly under load.
  PoolRun Faulted = poolStepsPerSec(8, Episodes, /*Crashy=*/true);
  std::printf("%-34s %10.1f steps/s  (x%.2f)  recoveries=%llu restarts=%llu\n",
              "pool 8 workers + crash faults", Faulted.StepsPerSec,
              Faulted.StepsPerSec / Single,
              static_cast<unsigned long long>(Faulted.EnvRecovered),
              static_cast<unsigned long long>(Faulted.ShardsRestarted));
  std::printf("\n");

  bench::ShapeChecks Checks;
  Checks.check(EpisodesAt8 == static_cast<uint64_t>(Episodes),
               "pool completes every scheduled episode");
  Checks.check(Faulted.Episodes == static_cast<uint64_t>(Episodes),
               "faulted pool completes every scheduled episode");
  Checks.check(Faulted.EnvRecovered + Faulted.ShardsRestarted > 0,
               "faulted run actually crashed and recovered");
  if (HwThreads >= 8) {
    Checks.check(SpeedupAt8 >= 4.0,
                 "8-worker pool >= 4x single-env steps/sec (8+ cores)");
  } else if (HwThreads >= 2) {
    double Floor = 0.6 * static_cast<double>(HwThreads);
    Checks.check(SpeedupAt8 >= std::min(4.0, Floor),
                 "8-worker pool speedup tracks available cores");
  } else {
    // Single hardware thread: parallel stepping cannot beat the baseline,
    // and 8 workers is a misconfiguration there (size workers to cores).
    // Require bounded coordination overhead at the modest width instead.
    Checks.check(SpeedupAt2 >= 0.35,
                 "2-worker pool within ~3x of baseline on 1 core");
  }
  Checks.check(Faulted.StepsPerSec >= 0.25 * SpeedupAt8 * Single,
               "crash faults cost < 4x throughput");
  return Checks.verdict();
}
