//===- runtime/EnvPool.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/EnvPool.h"

#include "datasets/DatasetRegistry.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"
#include "util/Logging.h"
#include "util/Timer.h"

#include <algorithm>
#include <atomic>
#include <limits>

using namespace compiler_gym;
using namespace compiler_gym::runtime;

namespace {

telemetry::Counter &stepsTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_pool_steps_total", {}, "Actions executed through EnvPool");
  return C;
}

telemetry::Counter &episodesTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_pool_episodes_total", {}, "Episodes completed through EnvPool");
  return C;
}

telemetry::Histogram &queueWaitUs() {
  static telemetry::Histogram &H =
      telemetry::MetricsRegistry::global().histogram(
          "cg_pool_queue_wait_us", {},
          "Latency from work submission to worker pickup (us)");
  return H;
}

telemetry::Counter &fanoutForksTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_pool_fanout_forks_total", {},
      "Candidate forks (snapshot rebases + session forks) in "
      "evaluateContinuations");
  return C;
}

} // namespace

EnvPool::EnvPool(EnvPoolOptions Opts, std::unique_ptr<ServiceBroker> Broker)
    : Opts(std::move(Opts)), Broker(std::move(Broker)) {}

EnvPool::~EnvPool() {
  // Envs must die before the broker: their destructors issue EndSession
  // RPCs over the broker's transports.
  Envs.clear();
  for (size_t Shard : ShardOf)
    Broker->releaseShard(Shard);
}

StatusOr<std::unique_ptr<EnvPool>> EnvPool::create(EnvPoolOptions Opts) {
  Opts.NumWorkers = std::max<size_t>(1, Opts.NumWorkers);
  if (Opts.Broker.NumShards == 0)
    Opts.Broker.NumShards = Opts.NumWorkers;

  CG_ASSIGN_OR_RETURN(core::CompilerEnvOptions EnvOpts,
                      core::resolveMakeOptions(Opts.EnvId, Opts.Make));
  EnvOpts.Client = Opts.Broker.Client;

  // Build the benchmark list: explicit URIs win, then a dataset expansion.
  std::vector<std::string> Benchmarks = Opts.Benchmarks;
  if (Benchmarks.empty() && !Opts.DatasetUri.empty()) {
    const datasets::Dataset *Ds =
        datasets::DatasetRegistry::instance().dataset(Opts.DatasetUri);
    if (!Ds)
      return notFound("no dataset '" + Opts.DatasetUri + "'");
    size_t Limit = Opts.MaxDatasetBenchmarks
                       ? Opts.MaxDatasetBenchmarks
                       : std::numeric_limits<size_t>::max();
    for (const std::string &Name : Ds->benchmarkNames(Limit))
      Benchmarks.push_back(Ds->name() + "/" + Name);
    if (Benchmarks.empty())
      return invalidArgument("dataset '" + Opts.DatasetUri +
                             "' has no benchmarks");
  }

  auto Broker = std::make_unique<ServiceBroker>(Opts.Broker);
  std::unique_ptr<EnvPool> Pool(
      new EnvPool(std::move(Opts), std::move(Broker)));
  const EnvPoolOptions &O = Pool->Opts;

  Pool->BenchmarkSlices.resize(O.NumWorkers);
  Pool->BenchmarkCursor.assign(O.NumWorkers, 0);
  for (size_t I = 0; I < Benchmarks.size(); ++I)
    Pool->BenchmarkSlices[I % O.NumWorkers].push_back(Benchmarks[I]);
  // Workers whose slice came up empty (more workers than benchmarks) wrap
  // around the full list so every worker has work.
  if (!Benchmarks.empty())
    for (std::vector<std::string> &Slice : Pool->BenchmarkSlices)
      if (Slice.empty())
        Slice = Benchmarks;

  Pool->Envs.reserve(O.NumWorkers);
  Pool->ShardOf.reserve(O.NumWorkers);
  for (size_t W = 0; W < O.NumWorkers; ++W) {
    size_t Shard = Pool->Broker->acquireShard();
    Pool->ShardOf.push_back(Shard);
    core::CompilerEnvOptions WorkerOpts = EnvOpts;
    if (!Pool->BenchmarkSlices[W].empty())
      WorkerOpts.BenchmarkUri = Pool->BenchmarkSlices[W].front();
    CG_ASSIGN_OR_RETURN(std::unique_ptr<core::CompilerEnv> Env,
                        core::CompilerEnv::attach(
                            WorkerOpts, Pool->Broker->shardService(Shard),
                            Pool->Broker->shardTransport(Shard)));
    Pool->Envs.push_back(std::move(Env));
  }
  Pool->Workers = std::make_unique<ThreadPool>(O.NumWorkers);
  return Pool;
}

std::string EnvPool::nextBenchmark(size_t Worker) {
  const std::vector<std::string> &Slice = BenchmarkSlices[Worker];
  if (Slice.empty())
    return std::string();
  std::lock_guard<std::mutex> Lock(CursorMutex);
  std::string Uri = Slice[BenchmarkCursor[Worker] % Slice.size()];
  ++BenchmarkCursor[Worker];
  return Uri;
}

Status EnvPool::forEachWorker(const std::function<Status(size_t)> &Fn) {
  std::vector<std::future<void>> Futures;
  Futures.reserve(Envs.size());
  std::mutex ErrMutex;
  Status FirstError = Status::ok();
  // Worker tasks adopt the coordinator's trace context so per-env spans
  // (env.step and below) stitch under the pool-level span even though
  // they run on ThreadPool threads.
  telemetry::TraceContext Ctx = telemetry::currentTraceContext();
  for (size_t W = 0; W < Envs.size(); ++W) {
    Stopwatch QueueWatch;
    Futures.push_back(Workers->submit([&, W, QueueWatch] {
      queueWaitUs().observeUs(QueueWatch.elapsedUs());
      telemetry::TraceBinding Bind(Ctx.TraceId, Ctx.SpanId);
      Status S = Fn(W);
      if (!S.isOk()) {
        std::lock_guard<std::mutex> Lock(ErrMutex);
        if (FirstError.isOk())
          FirstError = S;
      }
    }));
  }
  for (std::future<void> &F : Futures)
    F.get();
  return FirstError;
}

StatusOr<std::vector<service::Observation>> EnvPool::resetAll() {
  CG_TRACE_SPAN("pool.reset_all", "runtime");
  std::vector<service::Observation> Out(Envs.size());
  // Benchmark cursors advance on the caller thread: nextBenchmark is not
  // synchronized.
  std::vector<std::string> Uris(Envs.size());
  for (size_t W = 0; W < Envs.size(); ++W)
    Uris[W] = nextBenchmark(W);
  Status S = forEachWorker([&](size_t W) -> Status {
    if (!Uris[W].empty())
      Envs[W]->setBenchmark(Uris[W]);
    CG_ASSIGN_OR_RETURN(Out[W], Envs[W]->reset());
    return Status::ok();
  });
  if (!S.isOk())
    return S;
  return Out;
}

StatusOr<std::vector<core::StepResult>>
EnvPool::stepBatch(const std::vector<std::vector<int>> &Actions) {
  return stepBatch(Actions, {}, {});
}

StatusOr<std::vector<core::StepResult>>
EnvPool::stepBatch(const std::vector<std::vector<int>> &Actions,
                   const std::vector<std::string> &ObsSpaces,
                   const std::vector<std::string> &RewardSpaces) {
  if (Actions.size() != Envs.size())
    return invalidArgument("stepBatch: " + std::to_string(Actions.size()) +
                           " action lists for " +
                           std::to_string(Envs.size()) + " workers");
  CG_TRACE_SPAN("pool.step_batch", "runtime");
  std::vector<core::StepResult> Out(Envs.size());
  size_t Steps = 0;
  for (const std::vector<int> &A : Actions)
    Steps += A.size();
  Status S = forEachWorker([&](size_t W) -> Status {
    CG_ASSIGN_OR_RETURN(Out[W],
                        Envs[W]->step(Actions[W], ObsSpaces, RewardSpaces));
    return Status::ok();
  });
  if (!S.isOk())
    return S;
  stepsTotal().inc(Steps);
  return Out;
}

Status EnvPool::collect(size_t Episodes, const EpisodeFn &Fn) {
  CG_TRACE_SPAN("pool.collect", "runtime");
  std::atomic<size_t> NextEpisode{0};
  return forEachWorker([&](size_t W) -> Status {
    for (;;) {
      size_t Episode = NextEpisode.fetch_add(1, std::memory_order_relaxed);
      if (Episode >= Episodes)
        return Status::ok();
      std::string Uri = nextBenchmark(W);
      if (!Uri.empty())
        Envs[W]->setBenchmark(Uri);
      CG_ASSIGN_OR_RETURN(service::Observation Obs, Envs[W]->reset());
      CG_RETURN_IF_ERROR(Fn(W, Episode, *Envs[W], Obs));
      episodesTotal().inc();
      stepsTotal().inc(Envs[W]->episodeLength());
      std::lock_guard<std::mutex> Lock(StatsMutex);
      Aggregate.EpisodeReward.add(Envs[W]->episodeReward());
    }
  });
}

StatusOr<std::vector<double>> EnvPool::evaluateContinuations(
    core::CompilerEnv &Parent,
    const std::vector<std::vector<int>> &Candidates) {
  CG_TRACE_SPAN("pool.fanout", "runtime");
  const double ParentReward = Parent.episodeReward();
  std::vector<double> Rewards(Candidates.size(), 0.0);
  std::atomic<size_t> Next{0};
  Status S = forEachWorker([&](size_t W) -> Status {
    // Exactly one slot (at most) owns the parent; it must not rebase its
    // own env out from under the caller, so it evaluates on throwaway
    // forks of the parent instead. Safe single-threaded use of the
    // parent's shared client: only this worker thread touches it.
    const bool OwnsParent = Envs[W].get() == &Parent;
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Candidates.size())
        return Status::ok();
      double Reward = 0.0;
      if (OwnsParent) {
        CG_ASSIGN_OR_RETURN(std::unique_ptr<core::CompilerEnv> Fork,
                            Parent.fork());
        if (!Candidates[I].empty()) {
          CG_ASSIGN_OR_RETURN(core::StepResult R, Fork->step(Candidates[I]));
          (void)R;
        }
        Reward = Fork->episodeReward() - ParentReward;
      } else {
        // Cross-shard fork: restore the parent's snapshot into this
        // worker's own session (own client, own shard), then run the
        // suffix there.
        CG_RETURN_IF_ERROR(Envs[W]->rebase(Parent));
        if (!Candidates[I].empty()) {
          CG_ASSIGN_OR_RETURN(core::StepResult R,
                              Envs[W]->step(Candidates[I]));
          (void)R;
        }
        Reward = Envs[W]->episodeReward() - ParentReward;
      }
      fanoutForksTotal().inc();
      Rewards[I] = Reward;
      episodesTotal().inc();
      stepsTotal().inc(Candidates[I].size());
      std::lock_guard<std::mutex> Lock(StatsMutex);
      Aggregate.EpisodeReward.add(Reward);
    }
  });
  if (!S.isOk())
    return S;
  return Rewards;
}

PoolStats EnvPool::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Aggregate;
}
