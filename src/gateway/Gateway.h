//===- gateway/Gateway.h - Multi-tenant service gateway ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant front door: one socket endpoint (net/NetServer)
/// multiplexing many remote clients onto a runtime::ServiceBroker shard
/// fleet. This is the piece that turns the single-user client/service
/// pair into the paper's deployment story — a shared compiler-optimization
/// service that many users hit concurrently without interfering with each
/// other.
///
/// Per request the gateway:
///   1. authenticates the envelope's AuthToken against the tenant table;
///   2. admits or rejects new sessions (per-tenant and global caps);
///   3. rate-limits steps through the tenant's token bucket;
///   4. queues the op on its session's shard (bounded queue — a full
///      queue is an explicit Unavailable + RetryAfterMs reply, never a
///      silent drop) where a per-shard dispatcher serves tenants by
///      weighted round-robin. At dequeue time, deadline-carrying ops whose
///      remaining budget has expired — or is smaller than the shard's
///      observed (EWMA) backend service time — are shed with a typed reply
///      instead of burning a backend call that cannot finish in time;
///   5. forwards the envelope to the backend with the session id rewritten
///      to the backend's — but the client's RequestId, TraceId and SpanId
///      preserved, so idempotent retry dedup and trace stitching work
///      end-to-end through the gateway.
///
/// Sessions are gateway-scoped: clients hold gateway session ids, the
/// gateway maps them to (shard, backend id) with session→shard affinity.
/// When a shard crashes (the broker monitor restarts it) the next op on an
/// affected session triggers a transparent snapshot restore from the
/// session's last state key; when that is impossible the client sees the
/// standard "no session <id>" loss signal and its own replay recovery
/// takes over. drainShard() migrates sessions off a shard the same way,
/// mid-episode, for graceful scale-in; addShard() grows the fleet.
///
/// Step replies are forwarded byte-for-byte (they carry no session ids),
/// so observation payloads — including wire deltas — are exactly what the
/// backend produced.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_GATEWAY_GATEWAY_H
#define COMPILER_GYM_GATEWAY_GATEWAY_H

#include "net/NetServer.h"
#include "runtime/ServiceBroker.h"
#include "service/Message.h"

#include <memory>
#include <string>
#include <vector>

namespace compiler_gym {
namespace gateway {

/// One tenant's identity and resource envelope.
struct TenantConfig {
  std::string Name;
  /// Credential presented in RequestEnvelope::AuthToken.
  std::string Token;
  /// Weighted-fair share of each shard dispatcher (relative to the other
  /// tenants; a weight-3 tenant gets 3 ops served per round for a
  /// weight-1 tenant's one, when both have work queued).
  int Weight = 1;
  /// Cap on this tenant's live sessions (0 = unlimited).
  size_t MaxSessions = 64;
  /// Token-bucket rate limit on step/fork ops (0 = unlimited).
  double StepsPerSec = 0.0;
  double Burst = 8.0;
};

struct GatewayOptions {
  /// Endpoint to listen on ("tcp:127.0.0.1:0" / "unix:/tmp/cg.sock").
  net::NetAddress Listen;
  /// The tenant table. Empty = one implicit tenant with an empty token
  /// and no limits (single-user deployments, benches).
  std::vector<TenantConfig> Tenants;
  size_t NumShards = 2;
  /// Global live-session cap across all tenants (0 = unlimited).
  size_t MaxSessionsTotal = 256;
  /// Bounded per-shard dispatch queue; ops beyond this are rejected with
  /// Unavailable + RetryAfterMs.
  size_t MaxQueuePerShard = 128;
  /// Retry hints attached to flow-control rejections. Rate-limit
  /// rejections compute theirs from the bucket deficit instead.
  uint32_t QueueRetryAfterMs = 10;
  uint32_t AdmissionRetryAfterMs = 50;
  /// Deadline for one backend RPC issued on behalf of a client op. Ops
  /// carrying a client deadline (RequestEnvelope::DeadlineMs) cap this
  /// further to their remaining budget.
  int BackendTimeoutMs = 10000;
  /// Broker monitor sweep interval (restarts crashed shards); 0 disables.
  int MonitorIntervalMs = 20;
  /// Hung-shard watchdog stall window, passed through to the broker
  /// (see BrokerOptions::StallWindowMs); 0 disables.
  int StallWindowMs = 0;
  net::NetServerOptions Server;
};

/// A listening, serving gateway. Construction starts it; destruction
/// stops the listener, drains the dispatchers and tears down the fleet.
class Gateway {
public:
  static StatusOr<std::unique_ptr<Gateway>> serve(GatewayOptions Opts);

  ~Gateway();
  Gateway(const Gateway &) = delete;
  Gateway &operator=(const Gateway &) = delete;

  /// The bound listen address (real port for tcp:...:0) — dial this.
  const net::NetAddress &boundAddress() const;

  size_t numShards() const;
  size_t sessionCount() const;
  runtime::ServiceBroker &broker();

  /// Grows the fleet by one shard and returns its index. New sessions
  /// start landing on it immediately (least-loaded placement).
  size_t addShard();

  /// Gracefully drains shard \p Index: it stops receiving new sessions,
  /// and every live session on it is migrated to another shard via
  /// snapshot restore (mid-episode, transparent to the client). Sessions
  /// whose state cannot be restored elsewhere are dropped — their clients
  /// see session loss and replay. Returns the number migrated. The shard
  /// itself keeps running (it may still be a migration target later via
  /// undrainShard()).
  size_t drainShard(size_t Index);
  void undrainShard(size_t Index);

  // -- Introspection / test hooks --------------------------------------------
  /// Ops sitting in dispatch queues right now, across all shards.
  size_t queuedTotal() const;
  /// Freezes / resumes every shard dispatcher (ops queue but are not
  /// served) — lets tests load queues deterministically.
  void pauseDispatch();
  void resumeDispatch();

private:
  struct Impl;
  explicit Gateway(std::unique_ptr<Impl> I);
  std::unique_ptr<Impl> I;
};

} // namespace gateway
} // namespace compiler_gym

#endif // COMPILER_GYM_GATEWAY_GATEWAY_H
