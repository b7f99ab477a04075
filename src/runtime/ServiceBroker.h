//===- runtime/ServiceBroker.h - Sharded compiler-service fleet -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ServiceBroker: owns a fleet of CompilerService shards — each a service
/// instance behind its own QueueTransport dispatcher thread, the in-process
/// stand-in for one backend process — and routes environment sessions to
/// the least-loaded shard. A monitor thread watches the shards: a shard
/// whose service reports crashed() (a real fault, or a fault::FaultRegistry
/// crash rule at service.handle) is restarted in place. Environments
/// attached through the broker (CompilerEnv::attach) then re-establish
/// their sessions by replaying their action histories, which scales the
/// paper's §IV-B crash-recovery semantics from one env/one service to a
/// whole fleet. Hung shards surface as client-side DeadlineExceeded and are
/// recovered by the same env-side path. Every shard's service shares one
/// service::ObservationCache, so a state one shard observed is a hit (and
/// a delta base) on all of them.
///
/// Hung-shard watchdog (opt-in via StallWindowMs): every service publishes
/// a relaxed-atomic progress heartbeat (bumped per completed RPC and per
/// cancel-token poll inside pass execution). A shard that stays busy with
/// a standing-still heartbeat for a full stall window is wedged — work
/// that neither finishes nor polls — and cannot be restarted in place
/// (the stuck op owns the service mutex and the dispatcher thread). The
/// watchdog instead poisons the old service (abort + crashed, so queued
/// ops bounce immediately) and swaps a fresh service/transport pair into
/// the shard slot; the retired pair is parked until destruction so the
/// stuck thread can drain. Sessions resume on the fresh shard from their
/// last snapshot (gateway migration / env recovery), with zero replay.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_RUNTIME_SERVICEBROKER_H
#define COMPILER_GYM_RUNTIME_SERVICEBROKER_H

#include "service/ServiceClient.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

namespace compiler_gym {
namespace runtime {

struct BrokerOptions {
  size_t NumShards = 2;
  /// Call policy for clients minted by makeClient().
  service::ClientOptions Client;
  /// Monitor sweep interval; 0 disables the monitor thread (tests can
  /// drive sweeps manually via checkShards()).
  int MonitorIntervalMs = 20;
  /// Hung-shard watchdog: a shard busy for this long with no heartbeat
  /// progress is declared wedged and force-restarted by replacement.
  /// 0 disables the watchdog (the default: legitimate non-polling work —
  /// e.g. the non-cancel-aware delay rules of the hang tests — must not be
  /// misread as a wedge).
  /// Size it to several times the longest honest pause between heartbeat
  /// polls (pass boundaries / per-function polls), plus monitor jitter.
  int StallWindowMs = 0;
};

/// Owns N service shards; routes sessions; restarts dead shards.
class ServiceBroker {
public:
  explicit ServiceBroker(BrokerOptions Opts = {});
  ~ServiceBroker();

  ServiceBroker(const ServiceBroker &) = delete;
  ServiceBroker &operator=(const ServiceBroker &) = delete;

  size_t numShards() const {
    std::lock_guard<std::mutex> Lock(ShardsMutex);
    return Shards.size();
  }

  /// Adds one more shard to the fleet (gateway scale-out) and returns its
  /// index. Existing shard indices stay valid: shards are only ever
  /// appended, never removed — a drained shard just stops receiving new
  /// sessions.
  size_t addShard();

  /// Reserves the least-loaded shard and returns its index. Every acquire
  /// must be balanced by a release; EnvPool holds one lease per worker env
  /// for its lifetime.
  size_t acquireShard();
  void releaseShard(size_t Index);

  /// A dedicated client over shard \p Index's shared transport. Each env
  /// gets its own client so retry policy and telemetry stay per-env while
  /// the transport and service are shared.
  std::shared_ptr<service::ServiceClient> makeClient(size_t Index);

  std::shared_ptr<service::CompilerService> shardService(size_t Index);
  std::shared_ptr<service::Transport> shardTransport(size_t Index);

  size_t shardLoad(size_t Index) const;

  /// One monitor sweep: restarts every shard whose service crashed, and
  /// (with StallWindowMs > 0) force-restarts wedged shards by replacement.
  /// Called periodically by the monitor thread; callable from tests.
  /// Returns the number of shards restarted (both kinds).
  size_t checkShards();

  /// Crash restarts performed by the broker (monitor + sweeps); hung-shard
  /// force-restarts are counted separately in hungRestarts().
  uint64_t shardRestarts() const {
    return Restarts.load(std::memory_order_relaxed);
  }

  /// Wedged shards force-restarted by the watchdog.
  uint64_t hungRestarts() const {
    return HungRestarts.load(std::memory_order_relaxed);
  }

  /// The observation cache every shard's service shares.
  service::ObservationCache &observationCache() { return *ObsCache; }

private:
  struct Shard {
    std::shared_ptr<service::CompilerService> Service;
    std::shared_ptr<service::Transport> Channel;
    std::atomic<size_t> Load{0};
    /// Watchdog bookkeeping, guarded by ShardsMutex: the heartbeat value
    /// last observed and when it last moved (or the shard was last idle).
    uint64_t WatchTicks = 0;
    std::chrono::steady_clock::time_point WatchSince{};
  };

  void monitorLoop();
  std::unique_ptr<Shard> makeShard();

  BrokerOptions Opts;
  /// Guards the vector's structure (addShard appends concurrently with
  /// routing); the shards themselves are internally synchronized.
  mutable std::mutex ShardsMutex;
  std::vector<std::unique_ptr<Shard>> Shards;
  /// Wedged service/transport pairs retired by the watchdog: their
  /// dispatcher threads are stuck inside the wedge, so destruction (which
  /// joins them) is deferred until the broker itself is torn down.
  std::vector<std::pair<std::shared_ptr<service::CompilerService>,
                        std::shared_ptr<service::Transport>>>
      Graveyard;
  std::shared_ptr<service::ObservationCache> ObsCache =
      std::make_shared<service::ObservationCache>();
  std::atomic<uint64_t> Restarts{0};
  std::atomic<uint64_t> HungRestarts{0};

  std::mutex MonitorMutex;
  std::condition_variable MonitorWake;
  bool Stopping = false;
  std::thread Monitor;
};

} // namespace runtime
} // namespace compiler_gym

#endif // COMPILER_GYM_RUNTIME_SERVICEBROKER_H
