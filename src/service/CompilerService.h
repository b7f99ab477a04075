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
#include "service/ObservationCache.h"
#include "service/Serialization.h"
#include "util/LruCache.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

namespace compiler_gym {
namespace service {

/// Hosts sessions; decodes requests, dispatches, encodes replies.
class CompilerService {
public:
  /// \p Cache holds the service's deterministic observations; a broker
  /// passes one shared instance to all its shards.
  explicit CompilerService(std::shared_ptr<ObservationCache> Cache =
                               std::make_shared<ObservationCache>());

  /// The transport handler: one serialized request in, one serialized
  /// reply out. Thread-compatible (called from the dispatcher thread).
  std::string handle(const std::string &RequestBytes);

  /// Simulates a process relaunch: clears all sessions and the crash flag.
  /// The observation cache survives, like the snapshot store.
  void restart();

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
  /// Deterministic observations by (stateKey(), space): answers repeats
  /// and supplies the base each wire delta is diffed against. Never null.
  std::shared_ptr<ObservationCache> ObsCache;
  /// Reply cache for request deduplication (idempotent retries): a retry
  /// carrying a RequestId we already served replays the stored reply
  /// instead of re-executing — a timed-out request is not removed from the
  /// transport queue, so without this the original and the retry would
  /// both apply their actions. An LRU of DedupWindow replies: a replay
  /// promotes its entry, which changes nothing, since only retries of one
  /// call reuse a RequestId.
  static constexpr size_t DedupWindow = 512;
  util::LruCache<std::string> ServedReplies{DedupWindow};
};

} // namespace service
} // namespace compiler_gym

#endif // COMPILER_GYM_SERVICE_COMPILERSERVICE_H
