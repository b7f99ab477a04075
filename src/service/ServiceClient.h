//===- service/ServiceClient.h - Frontend RPC client ------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed client over the transport: the frontend half of the RPC boundary.
/// Handles per-call deadlines and transparent retry of transient
/// (Unavailable / garbled-reply) failures; non-transient failures
/// (Aborted = service crash, DeadlineExceeded = hang) are surfaced so the
/// environment layer can restart the service and replay its state, which
/// is the paper's fault-tolerance story (§IV-B).
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_SERVICE_SERVICECLIENT_H
#define COMPILER_GYM_SERVICE_SERVICECLIENT_H

#include "service/CompilerService.h"
#include "service/Transport.h"
#include "util/Rng.h"

#include <memory>

namespace compiler_gym {
namespace service {

/// Client-side call policy.
struct ClientOptions {
  int TimeoutMs = 10000;
  int MaxRetries = 2;      ///< For transient failures only.
  /// Base retry delay. Retry N waits RetryBackoffMs * 2^(N-1), capped at
  /// RetryBackoffMaxMs, with ±50% jitter — in-process channels recover in
  /// microseconds, but a remote channel mid-reconnect (or a fleet of
  /// clients retrying in lockstep) needs capped exponential backoff.
  int RetryBackoffMs = 2;
  int RetryBackoffMaxMs = 250;
  /// Tenant credential stamped on every request envelope. Empty for
  /// in-process use; required by a multi-tenant gateway endpoint.
  std::string AuthToken;
  /// Stamp RequestEnvelope::DeadlineMs with the call's remaining budget on
  /// every attempt. TimeoutMs then acts as an *overall* per-call budget:
  /// retries and backoff sleeps consume it rather than extending it, the
  /// service rejects/cancels work that can no longer finish in time, and
  /// the gateway sheds queued requests that would expire anyway. Disable
  /// to get the legacy per-attempt timeout with no server-side deadline
  /// (the deadline-overhead bench baseline).
  bool PropagateDeadline = true;
};

/// A connection to one compiler service.
class ServiceClient {
public:
  /// Connects through an explicit transport (remote clients pass a
  /// net::SocketTransport; tests pass fakes). Every attempt passes the
  /// transport.round_trip and transport.reply fault points, whatever the
  /// channel. \p Service may be null for remote channels: there is no
  /// in-process backend to restart, so restartService() becomes a no-op
  /// and recovery is the server fleet's job (broker monitor / gateway).
  ServiceClient(std::shared_ptr<CompilerService> Service,
                std::shared_ptr<Transport> Channel, ClientOptions Opts = {});

  /// Convenience: builds the standard queue transport over \p Service.
  explicit ServiceClient(std::shared_ptr<CompilerService> Service,
                         ClientOptions Opts = {});

  StatusOr<StartSessionReply> startSession(const StartSessionRequest &Req);
  Status endSession(uint64_t SessionId);
  StatusOr<StepReply> step(const StepRequest &Req);
  StatusOr<uint64_t> fork(uint64_t SessionId);
  Status heartbeat();

  /// Relaunches the backend (used by the environment after crash/hang).
  /// No-op on remote channels (null service handle).
  void restartService();

  const std::shared_ptr<CompilerService> &service() const { return Service; }

private:
  /// Stamps \p Req with a process-unique RequestId (shared across retries,
  /// so the service can deduplicate re-executions) and the caller's trace
  /// context, opens the client RPC span, and performs the call.
  StatusOr<ReplyEnvelope> call(RequestEnvelope &Req);
  /// The retry loop proper (split out so call() can time it end-to-end).
  StatusOr<ReplyEnvelope> callAttempts(RequestEnvelope &Req);
  /// One attempt's Channel->roundTrip between the transport.round_trip
  /// and transport.reply fault points.
  StatusOr<std::string> roundTrip(const std::string &Bytes, int TimeoutMs);

  /// Delay before retry \p Attempt: capped exponential backoff with ±50%
  /// jitter, never less than \p RetryAfterHintMs (a typed backpressure
  /// hint from the server).
  int backoffDelayMs(int Attempt, uint32_t RetryAfterHintMs);

  std::shared_ptr<CompilerService> Service;
  std::shared_ptr<Transport> Channel;
  ClientOptions Opts;
  Rng BackoffJitter{0xBACC0FF};
};

} // namespace service
} // namespace compiler_gym

#endif // COMPILER_GYM_SERVICE_SERVICECLIENT_H
