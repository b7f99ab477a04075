//===- service/CompilerService.h - Backend session host ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common compiler-service runtime (§IV-B): hosts CompilationSession
/// instances behind the message protocol, independent of any particular
/// compiler. Its fault points (service.handle, service.apply_actions) let
/// a fault::FaultRegistry plan make the service "crash" or hang on chosen
/// operations, standing in for real compiler segfaults and infinite loops
/// when testing the frontend's crash recovery.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_SERVICE_COMPILERSERVICE_H
#define COMPILER_GYM_SERVICE_COMPILERSERVICE_H

#include "service/CompilationSession.h"
#include "service/Serialization.h"

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace compiler_gym {
namespace service {

/// Interface to a cross-service observation cache. Implemented by
/// runtime::ObservationCache; declared here so the service layer does not
/// depend on the runtime layer. Implementations must be thread-safe: one
/// cache is typically shared by every shard of a ServiceBroker.
class ObservationCacheBase {
public:
  virtual ~ObservationCacheBase();

  /// Returns true and fills \p Out when (StateKey, SpaceName) is cached.
  virtual bool lookup(uint64_t StateKey, const std::string &SpaceName,
                      Observation &Out) = 0;

  /// Stores a computed observation under (StateKey, SpaceName).
  virtual void insert(uint64_t StateKey, const std::string &SpaceName,
                      const Observation &Obs) = 0;
};

/// Hosts sessions; decodes requests, dispatches, encodes replies.
class CompilerService {
public:
  CompilerService();

  /// The transport handler: one serialized request in, one serialized
  /// reply out. Thread-compatible (called from the dispatcher thread).
  std::string handle(const std::string &RequestBytes);

  /// Simulates a process relaunch: clears all sessions and the crash flag.
  void restart();

  /// Installs a shared cache consulted for deterministic observations of
  /// sessions that expose a stateKey(). May be shared across services.
  void setObservationCache(std::shared_ptr<ObservationCacheBase> Cache);

  bool crashed() const { return Crashed.load(std::memory_order_relaxed); }
  size_t numSessions() const;
  uint64_t opsHandled() const {
    return OpsHandled.load(std::memory_order_relaxed);
  }

  /// Liveness heartbeat for the broker's hung-shard watchdog: bumped once
  /// per completed RPC and once per cancel-token poll inside long-running
  /// work (pass pipelines, cancellation-aware injected delays). A shard
  /// that is busy() but whose ticks stand still is wedged, not slow.
  uint64_t progressTicks() const {
    return ProgressTicks.load(std::memory_order_relaxed);
  }
  /// True while at least one RPC is inside handle(). Relaxed reads — the
  /// watchdog tolerates momentary skew.
  bool busy() const {
    return OpsStarted.load(std::memory_order_relaxed) !=
           OpsFinished.load(std::memory_order_relaxed);
  }
  /// Watchdog poisoning: asks in-flight work to stop at its next token
  /// poll. Cleared by restart().
  void requestAbort() { AbortRequested.store(true, std::memory_order_relaxed); }
  /// Marks the service crashed without waiting for in-flight work — the
  /// watchdog uses it to bounce every op still queued behind a wedge with
  /// Aborted so clients fail over instead of waiting out their timeouts.
  void markCrashed() { Crashed.store(true, std::memory_order_relaxed); }

private:
  /// The mutex-guarded request path (dedup window, fault point, dispatch,
  /// reply encoding); handle() wraps it with trace binding, the request's
  /// cancel token, and telemetry.
  std::string handleLocked(const RequestEnvelope &Req,
                           const util::CancelToken &Token);
  ReplyEnvelope dispatch(const RequestEnvelope &Req,
                         const util::CancelToken &Token);

  mutable std::mutex Mutex;
  /// Atomics below: read by broker monitor threads without taking Mutex
  /// (a watchdog that needed the Mutex would block behind the very wedge
  /// it is trying to detect).
  std::atomic<bool> Crashed{false};
  std::atomic<bool> AbortRequested{false};
  std::atomic<uint64_t> ProgressTicks{0};
  std::atomic<uint64_t> OpsStarted{0};
  std::atomic<uint64_t> OpsFinished{0};
  std::atomic<uint64_t> OpsHandled{0};
  uint64_t NextSessionId = 1;
  std::map<uint64_t, std::unique_ptr<CompilationSession>> Sessions;
  std::shared_ptr<ObservationCacheBase> ObsCache;
  /// Reply cache for request deduplication (idempotent retries): a retry
  /// carrying a RequestId we already served replays the stored reply
  /// instead of re-executing — a timed-out request is not removed from the
  /// transport queue, so without this the original and the retry would
  /// both apply their actions. Bounded FIFO window.
  static constexpr size_t DedupWindow = 512;
  std::unordered_map<uint64_t, std::string> ServedReplies;
  std::deque<uint64_t> ServedOrder;
  /// Per-session retained copy of the last full observation sent per
  /// delta-eligible space (each carries its StateKey): the base the next
  /// delta is computed against even when no shared ObservationCache is
  /// installed. Bounded by live sessions x delta-eligible spaces; dropped
  /// on EndSession and restart().
  std::map<uint64_t, std::unordered_map<std::string, Observation>> LastSent;
};

} // namespace service
} // namespace compiler_gym

#endif // COMPILER_GYM_SERVICE_COMPILERSERVICE_H
