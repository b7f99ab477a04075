//===- net/SocketTransport.h - Client socket transport ----------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// service::Transport over a TCP or Unix-domain socket: the client half of
/// the cross-process RPC path. One framed request out, one framed reply
/// back, fully serialized per connection (calls take a mutex — envs own
/// their client, so per-env calls are already sequential, and concurrent
/// sharers queue exactly as they would on QueueTransport).
///
/// Failure model: any I/O error, framing error or timeout closes the
/// connection — a reply that never arrived may still be in flight, and
/// with no correlation ids in the protocol the only safe stream state is
/// a fresh one. That is sound because every retry path above this layer
/// is idempotent (RequestEnvelope::RequestId dedup + episode replay
/// recovery). The next call redials with capped exponential backoff plus
/// jitter, so a restarting server sees a trickle, not a stampede.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_NET_SOCKETTRANSPORT_H
#define COMPILER_GYM_NET_SOCKETTRANSPORT_H

#include "net/Frame.h"
#include "net/Socket.h"
#include "service/Transport.h"
#include "util/Rng.h"

#include <mutex>

namespace compiler_gym {
namespace net {

struct SocketTransportOptions {
  /// Cap on connection establishment (per dial attempt).
  int ConnectTimeoutMs = 5000;
  /// Reconnect backoff: delay before redial N is
  /// min(Max, Base * 2^(N-1)) with ±50% jitter. Reset by a successful
  /// round trip.
  int ReconnectBackoffMs = 10;
  int ReconnectBackoffMaxMs = 2000;
  /// Largest reply frame accepted.
  size_t MaxFrameBytes = DefaultMaxFrameBytes;
  uint64_t JitterSeed = 0x50C4E7;
};

/// Client transport dialing one server endpoint.
class SocketTransport : public service::Transport {
public:
  SocketTransport(NetAddress Addr, SocketTransportOptions Opts = {});

  /// Convenience: parses \p Spec ("tcp:host:port" / "unix:/path") and
  /// dials it lazily on first use.
  static StatusOr<std::shared_ptr<SocketTransport>>
  dial(const std::string &Spec, SocketTransportOptions Opts = {});

  StatusOr<std::string> roundTrip(const std::string &RequestBytes,
                                  int TimeoutMs) override;

private:
  /// Ensures Conn is a live connection, honoring backoff between redials
  /// and the caller's remaining deadline budget. Caller holds Mutex.
  Status ensureConnected(int DeadlineMs);

  /// One framed request/reply exchange on the live connection. Caller
  /// holds Mutex. Any failure closes the connection before returning.
  StatusOr<std::string> exchange(const std::string &RequestBytes,
                                 int TimeoutMs);

  NetAddress Addr;
  SocketTransportOptions Opts;
  std::mutex Mutex;
  Socket Conn;
  Rng Jitter;
  int FailedDials = 0; ///< Consecutive; resets on success.
};

} // namespace net
} // namespace compiler_gym

#endif // COMPILER_GYM_NET_SOCKETTRANSPORT_H
