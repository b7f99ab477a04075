//===- runtime/ServiceBroker.cpp ------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ServiceBroker.h"

#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"
#include "util/Logging.h"

#include <algorithm>
#include <cassert>

using namespace compiler_gym;
using namespace compiler_gym::runtime;

namespace {

telemetry::Counter &shardRestartsTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_broker_shard_restarts_total", {},
      "Crashed service shards relaunched by broker monitors");
  return C;
}

telemetry::Counter &hungRestartsTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_broker_hung_restarts_total", {},
      "Wedged service shards force-restarted by the watchdog");
  return C;
}

} // namespace

ServiceBroker::ServiceBroker(BrokerOptions Opts) : Opts(Opts) {
  // Touch the restart counters so both series scrape as zero before the
  // first crash/wedge instead of being absent.
  shardRestartsTotal();
  hungRestartsTotal();
  size_t N = std::max<size_t>(1, Opts.NumShards);
  Shards.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Shards.push_back(makeShard());
  if (this->Opts.MonitorIntervalMs > 0)
    Monitor = std::thread([this] { monitorLoop(); });
}

std::unique_ptr<ServiceBroker::Shard> ServiceBroker::makeShard() {
  auto S = std::make_unique<Shard>();
  S->Service = std::make_shared<service::CompilerService>(ObsCache);
  // One dispatcher thread per shard: the process boundary of the paper's
  // per-environment service, so shards execute requests concurrently.
  std::shared_ptr<service::CompilerService> Service = S->Service;
  S->Channel = std::make_shared<service::QueueTransport>(
      [Service](const std::string &Bytes) { return Service->handle(Bytes); });
  S->WatchTicks = S->Service->progressTicks();
  S->WatchSince = std::chrono::steady_clock::now();
  return S;
}

size_t ServiceBroker::addShard() {
  std::lock_guard<std::mutex> Lock(ShardsMutex);
  Shards.push_back(makeShard());
  return Shards.size() - 1;
}

ServiceBroker::~ServiceBroker() {
  {
    std::lock_guard<std::mutex> Lock(MonitorMutex);
    Stopping = true;
  }
  MonitorWake.notify_all();
  if (Monitor.joinable())
    Monitor.join();
}

size_t ServiceBroker::acquireShard() {
  std::lock_guard<std::mutex> Lock(ShardsMutex);
  // Least-loaded routing. Load changes under us are benign: the worst case
  // is a briefly imbalanced assignment, not an incorrect one.
  size_t Best = 0;
  size_t BestLoad = Shards[0]->Load.load(std::memory_order_relaxed);
  for (size_t I = 1; I < Shards.size(); ++I) {
    size_t L = Shards[I]->Load.load(std::memory_order_relaxed);
    if (L < BestLoad) {
      Best = I;
      BestLoad = L;
    }
  }
  Shards[Best]->Load.fetch_add(1, std::memory_order_relaxed);
  return Best;
}

void ServiceBroker::releaseShard(size_t Index) {
  std::lock_guard<std::mutex> Lock(ShardsMutex);
  assert(Index < Shards.size() && "bad shard index");
  Shards[Index]->Load.fetch_sub(1, std::memory_order_relaxed);
}

std::shared_ptr<service::ServiceClient>
ServiceBroker::makeClient(size_t Index) {
  std::lock_guard<std::mutex> Lock(ShardsMutex);
  assert(Index < Shards.size() && "bad shard index");
  return std::make_shared<service::ServiceClient>(
      Shards[Index]->Service, Shards[Index]->Channel, Opts.Client);
}

std::shared_ptr<service::CompilerService>
ServiceBroker::shardService(size_t Index) {
  std::lock_guard<std::mutex> Lock(ShardsMutex);
  assert(Index < Shards.size() && "bad shard index");
  return Shards[Index]->Service;
}

std::shared_ptr<service::Transport>
ServiceBroker::shardTransport(size_t Index) {
  std::lock_guard<std::mutex> Lock(ShardsMutex);
  assert(Index < Shards.size() && "bad shard index");
  return Shards[Index]->Channel;
}

size_t ServiceBroker::shardLoad(size_t Index) const {
  std::lock_guard<std::mutex> Lock(ShardsMutex);
  assert(Index < Shards.size() && "bad shard index");
  return Shards[Index]->Load.load(std::memory_order_relaxed);
}

size_t ServiceBroker::checkShards() {
  // Phase 1 under the structure lock: run the hung-shard watchdog (which
  // may replace shard slots) and snapshot the crashed services. Phase 2
  // restarts the crashed ones unlocked: restart() resets session state and
  // should not serialize against routing.
  std::vector<std::shared_ptr<service::CompilerService>> Crashed;
  size_t Hung = 0;
  std::chrono::steady_clock::time_point Now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> Lock(ShardsMutex);
    for (size_t I = 0; I < Shards.size(); ++I) {
      Shard &S = *Shards[I];
      if (S.Service->crashed()) {
        Crashed.push_back(S.Service);
        S.WatchTicks = S.Service->progressTicks();
        S.WatchSince = Now;
        continue;
      }
      if (Opts.StallWindowMs <= 0)
        continue;
      uint64_t Ticks = S.Service->progressTicks();
      if (!S.Service->busy() || Ticks != S.WatchTicks) {
        S.WatchTicks = Ticks;
        S.WatchSince = Now;
        continue;
      }
      if (Now - S.WatchSince < std::chrono::milliseconds(Opts.StallWindowMs))
        continue;
      // Wedged: busy for a full stall window with a standing-still
      // heartbeat. The stuck op owns the service mutex and the dispatcher
      // thread, so an in-place restart would block behind it; poison the
      // old service (abort flag for cancel-aware code, crashed so queued
      // ops bounce Aborted) and swap a fresh service/transport into the
      // slot. The retired pair goes to the graveyard — destroying the
      // QueueTransport joins its wedged dispatcher, which must not stall
      // the monitor.
      telemetry::SpanScope WatchdogSpan("watchdog.force_restart", "broker");
      CG_LOG_INFO_FOR("broker", 0)
          << "shard " << I << " wedged (no heartbeat progress for "
          << Opts.StallWindowMs << "ms); force-restarting";
      S.Service->requestAbort();
      S.Service->markCrashed();
      std::unique_ptr<Shard> Fresh = makeShard();
      Graveyard.emplace_back(std::move(S.Service), std::move(S.Channel));
      S.Service = std::move(Fresh->Service);
      S.Channel = std::move(Fresh->Channel);
      S.WatchTicks = S.Service->progressTicks();
      S.WatchSince = Now;
      ++Hung;
    }
  }
  size_t Restarted = 0;
  for (size_t I = 0; I < Crashed.size(); ++I) {
    CG_LOG_INFO_FOR("broker", 0) << "crashed shard service; restarting";
    Crashed[I]->restart();
    ++Restarted;
  }
  if (Restarted)
    shardRestartsTotal().inc(Restarted);
  if (Hung)
    hungRestartsTotal().inc(Hung);
  return Restarted + Hung;
}

void ServiceBroker::monitorLoop() {
  std::unique_lock<std::mutex> Lock(MonitorMutex);
  while (!Stopping) {
    MonitorWake.wait_for(Lock,
                         std::chrono::milliseconds(Opts.MonitorIntervalMs),
                         [this] { return Stopping; });
    if (Stopping)
      return;
    Lock.unlock();
    checkShards();
    Lock.lock();
  }
}
