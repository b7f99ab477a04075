//===- service/Message.h - RPC message schema -------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/reply message schema spoken between the frontend and the
/// compiler services — the analogue of CompilerGym's gRPC protocol. All
/// frontend/backend traffic is serialized through these types (see
/// Serialization.h), preserving the paper's process-isolation design even
/// though both ends live in one address space here.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_SERVICE_MESSAGE_H
#define COMPILER_GYM_SERVICE_MESSAGE_H

#include "datasets/Benchmark.h"
#include "util/Status.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace compiler_gym {
namespace service {

/// A discrete action space: a named list of action names.
struct ActionSpace {
  std::string Name;
  std::vector<std::string> ActionNames;

  size_t size() const { return ActionNames.size(); }
};

/// Value type of an observation space.
enum class ObservationType {
  Int64List,  ///< E.g. Autophase / InstCount vectors.
  DoubleList, ///< E.g. inst2vec embeddings (flattened).
  String,     ///< E.g. the IR text.
  Binary,     ///< E.g. serialized ProGraML graphs, object code.
  Int64Value, ///< E.g. code size.
  DoubleValue ///< E.g. runtime seconds.
};

/// Static description of an observation space: the typed descriptor the
/// frontend surfaces as core::SpaceInfo (§III-B). Shape and range are
/// advisory metadata — empty shape means scalar or dynamically sized, and
/// the default range is unbounded.
struct ObservationSpaceInfo {
  std::string Name;
  ObservationType Type = ObservationType::Int64Value;
  /// Fixed dimensions when statically known (e.g. {56} for Autophase);
  /// empty for scalars and dynamically-sized payloads (Ir text, graphs).
  std::vector<int64_t> Shape;
  /// Inclusive element bounds. Defaults are unbounded (infinities).
  double RangeMin = -std::numeric_limits<double>::infinity();
  double RangeMax = std::numeric_limits<double>::infinity();
  bool Deterministic = true;
  bool PlatformDependent = false;
};

/// One contiguous patch inside a delta-encoded observation: replaces
/// DropCount elements (bytes for String/Binary payloads) of the base value
/// starting at Start with this segment's payload. Exactly one of the
/// payload fields is populated, matching the observation's type.
struct ObservationSegment {
  uint64_t Start = 0;
  uint64_t DropCount = 0;
  std::vector<int64_t> Ints;
  std::vector<double> Doubles;
  std::string Str;
};

/// One observation value (tagged union, flat for easy serialization).
///
/// Epoch handshake: a reply observation may carry StateKey — the
/// content-addressed key (CompilationSession::stateKey()) of the state the
/// value was computed at. A client that retains the full value can
/// advertise that key in the next StepRequest (ObservationBaseKeys); the
/// service then answers with IsDelta set and only the changed
/// ObservationSegments relative to BaseKey, instead of the full payload.
/// An empty segment list with IsDelta means "unchanged since your base".
/// Keys are content-addressed, so they survive fork() and crash-recovery
/// replay. A service that cannot produce a delta (base no longer in its
/// ObservationCache, space nondeterministic or scalar) falls back to the
/// legacy full payload with IsDelta unset.
struct Observation {
  ObservationType Type = ObservationType::Int64Value;
  std::vector<int64_t> Ints;
  std::vector<double> Doubles;
  std::string Str;   ///< Also carries Binary payloads.
  int64_t IntValue = 0;
  double DoubleValue = 0.0;

  /// State key of the (full) value this observation represents; 0 = the
  /// backend does not expose state identity (no delta support).
  uint64_t StateKey = 0;
  /// When set, the payload lives in Segments (relative to BaseKey) and the
  /// flat payload fields above are empty.
  bool IsDelta = false;
  uint64_t BaseKey = 0;
  std::vector<ObservationSegment> Segments;
};

/// One action: an index into the session's action space, plus optional
/// integer payload for composite spaces (e.g. the GCC direct choice
/// space sets option values directly).
struct Action {
  int32_t Index = 0;
  std::vector<int64_t> Values;
};

// -- Requests / replies -------------------------------------------------------

enum class RequestKind : int32_t {
  StartSession = 1,
  EndSession,
  Step,
  Fork,
  Heartbeat,
};

/// Stable lowercase name of a request kind, used as the "kind" label on
/// per-RPC telemetry and in span names.
inline const char *requestKindName(RequestKind Kind) {
  switch (Kind) {
  case RequestKind::StartSession:
    return "start_session";
  case RequestKind::EndSession:
    return "end_session";
  case RequestKind::Step:
    return "step";
  case RequestKind::Fork:
    return "fork";
  case RequestKind::Heartbeat:
    return "heartbeat";
  }
  return "unknown";
}

struct StartSessionRequest {
  std::string CompilerName; ///< "llvm", "gcc", "loop_tool".
  datasets::Benchmark Bench;
  std::string ActionSpaceName; ///< Empty: use the default space.
  /// Crash recovery: when nonzero, ask the backend to restore the session
  /// to the snapshot content-addressed by this state key (the
  /// SessionStateKey of the last successful step) instead of starting from
  /// the benchmark's initial state. Best-effort: if the snapshot is gone
  /// (evicted, different process), the session starts fresh and the client
  /// falls back to action replay.
  uint64_t RestoreStateKey = 0;
};

struct StartSessionReply {
  uint64_t SessionId = 0;
  ActionSpace Space;
  std::vector<ObservationSpaceInfo> ObservationSpaces;
  /// True when RestoreStateKey was honored: the session already sits at
  /// the requested state and no action replay is needed.
  bool Restored = false;
};

struct EndSessionRequest {
  uint64_t SessionId = 0;
};

struct StepRequest {
  uint64_t SessionId = 0;
  std::vector<Action> Actions; ///< >1 = batched step (§III-B5).
  /// Lazy multi-space selection: every named space (observations and the
  /// metrics backing reward spaces alike) is computed in this one RPC and
  /// returned name-keyed in the reply.
  std::vector<std::string> ObservationSpaces;
  /// Delta handshake, parallel to ObservationSpaces (may be shorter or
  /// empty; missing entries mean 0): the StateKey of the newest full value
  /// the client retains for that space. Nonzero invites the service to
  /// reply with a delta against that base (see Observation).
  std::vector<uint64_t> ObservationBaseKeys;
};

struct StepReply {
  bool EndOfSession = false;
  bool ActionSpaceChanged = false;
  ActionSpace NewSpace; ///< Valid when ActionSpaceChanged.
  /// Space name of Observations[i] — the reply is self-describing so the
  /// frontend demuxes by name instead of by request-order cursor.
  std::vector<std::string> ObservationNames;
  std::vector<Observation> Observations;
  /// Content-addressed key of the session state after the batch applied
  /// (CompilationSession::stateKey(); 0 = backend has no state identity).
  /// Clients record it so a later crash recovery can restore the matching
  /// snapshot via StartSessionRequest::RestoreStateKey.
  uint64_t SessionStateKey = 0;
};

struct ForkRequest {
  uint64_t SessionId = 0;
};

struct ForkReply {
  uint64_t SessionId = 0;
};

/// The envelope that actually travels over the transport.
struct RequestEnvelope {
  RequestKind Kind = RequestKind::Heartbeat;
  /// Idempotency token: retries of one logical call carry the same id, and
  /// the service replays the cached reply instead of re-executing. Without
  /// it, a request that timed out in the transport queue (or behind a hang)
  /// would execute once for the original and once for the retry, silently
  /// double-applying actions. 0 = no deduplication.
  uint64_t RequestId = 0;
  /// Distributed-trace correlation (telemetry/Trace.h): the client stamps
  /// the trace id and the span id of its in-flight RPC span here, so
  /// service-side spans — running on the transport's dispatcher thread —
  /// stitch into the same trace as children of the client span. 0 = no
  /// sampled trace active.
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
  /// Remaining-budget deadline in milliseconds: how much of the caller's
  /// per-call timeout is left when this envelope is encoded. The client
  /// re-stamps it on every retry (budget minus elapsed attempts/backoff),
  /// the gateway re-stamps it after queueing and sheds requests that can
  /// no longer make it, and the service rejects already-expired requests
  /// with DeadlineExceeded before doing work and arms a CancelToken from
  /// it so pass pipelines abort mid-flight. 0 = no deadline.
  uint32_t DeadlineMs = 0;
  /// Multi-tenant credential (gateway/Gateway.h): remote clients present
  /// their tenant token on every request; the gateway maps it to a tenant
  /// for admission control, rate limiting and fair dispatch. Empty for
  /// in-process transports, and ignored by CompilerService itself.
  std::string AuthToken;
  StartSessionRequest Start;
  EndSessionRequest End;
  StepRequest Step;
  ForkRequest Fork;
};

struct ReplyEnvelope {
  StatusCode Code = StatusCode::Ok;
  std::string ErrorMessage;
  /// Typed backpressure (gateway): with Code == Unavailable, a nonzero
  /// value tells the client how long to wait before retrying — the request
  /// was rejected by flow control (full shard queue, rate limit, admission
  /// cap), not lost. Clients honor it in their retry backoff instead of
  /// treating the failure as a dead backend.
  uint32_t RetryAfterMs = 0;
  StartSessionReply Start;
  StepReply Step;
  ForkReply Fork;

  Status status() const {
    return Code == StatusCode::Ok ? Status::ok() : Status(Code, ErrorMessage);
  }
};

} // namespace service
} // namespace compiler_gym

#endif // COMPILER_GYM_SERVICE_MESSAGE_H
