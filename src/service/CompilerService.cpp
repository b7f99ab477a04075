//===- service/CompilerService.cpp ----------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/CompilerService.h"

#include "fault/FaultRegistry.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"
#include "util/Logging.h"
#include "util/Timer.h"

using namespace compiler_gym;
using namespace compiler_gym::service;

namespace {

using telemetry::Counter;
using telemetry::Histogram;
using telemetry::MetricsRegistry;

Counter &rpcsTotal(RequestKind Kind) {
  static MetricsRegistry &M = MetricsRegistry::global();
  static const char *Help = "RPCs dispatched by the compiler service";
  static Counter &Start =
      M.counter("cg_service_rpcs_total", {{"kind", "start_session"}}, Help);
  static Counter &End =
      M.counter("cg_service_rpcs_total", {{"kind", "end_session"}}, Help);
  static Counter &Step =
      M.counter("cg_service_rpcs_total", {{"kind", "step"}}, Help);
  static Counter &Fork =
      M.counter("cg_service_rpcs_total", {{"kind", "fork"}}, Help);
  static Counter &Heartbeat =
      M.counter("cg_service_rpcs_total", {{"kind", "heartbeat"}}, Help);
  switch (Kind) {
  case RequestKind::StartSession:
    return Start;
  case RequestKind::EndSession:
    return End;
  case RequestKind::Step:
    return Step;
  case RequestKind::Fork:
    return Fork;
  case RequestKind::Heartbeat:
    return Heartbeat;
  }
  return Heartbeat;
}

Histogram &rpcLatencyUs(RequestKind Kind) {
  static MetricsRegistry &M = MetricsRegistry::global();
  static const char *Help =
      "Service-side RPC handling latency (decode to encoded reply, us)";
  static Histogram &Start = M.histogram(
      "cg_service_rpc_latency_us", {{"kind", "start_session"}}, Help);
  static Histogram &End = M.histogram("cg_service_rpc_latency_us",
                                      {{"kind", "end_session"}}, Help);
  static Histogram &Step =
      M.histogram("cg_service_rpc_latency_us", {{"kind", "step"}}, Help);
  static Histogram &Fork =
      M.histogram("cg_service_rpc_latency_us", {{"kind", "fork"}}, Help);
  static Histogram &Heartbeat = M.histogram("cg_service_rpc_latency_us",
                                            {{"kind", "heartbeat"}}, Help);
  switch (Kind) {
  case RequestKind::StartSession:
    return Start;
  case RequestKind::EndSession:
    return End;
  case RequestKind::Step:
    return Step;
  case RequestKind::Fork:
    return Fork;
  case RequestKind::Heartbeat:
    return Heartbeat;
  }
  return Heartbeat;
}

Counter &deadlineExceededServiceTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_rpc_deadline_exceeded_total", {{"layer", "service"}},
      "RPCs abandoned at a layer because the remaining deadline budget ran "
      "out");
  return C;
}

Counter &dedupReplaysTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_service_dedup_replays_total", {},
      "Requests answered from the idempotency reply cache");
  return C;
}

Counter &deltaRepliesTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_service_observation_replies_total", {{"encoding", "delta"}},
      "Step observations answered as deltas vs full payloads");
  return C;
}

Counter &fullRepliesTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_service_observation_replies_total", {{"encoding", "full"}},
      "Step observations answered as deltas vs full payloads");
  return C;
}

} // namespace

CompilerService::CompilerService(std::shared_ptr<ObservationCache> Cache)
    : ObsCache(std::move(Cache)) {
  // Pre-register (PR 6 convention): the zero-valued series shows up on the
  // first scrape, before any deadline is ever missed.
  (void)deadlineExceededServiceTotal();
}

void CompilerService::restart() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Sessions.clear();
  ServedReplies.clear();
  Crashed.store(false, std::memory_order_relaxed);
  AbortRequested.store(false, std::memory_order_relaxed);
  OpsHandled.store(0, std::memory_order_relaxed);
  CG_LOG_INFO_FOR("service", 0) << "compiler service restarted";
}

size_t CompilerService::numSessions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Sessions.size();
}

std::string CompilerService::handle(const std::string &RequestBytes) {
  StatusOr<RequestEnvelope> Req = decodeRequest(RequestBytes);
  if (!Req.isOk()) {
    ReplyEnvelope Reply;
    Reply.Code = Req.status().code();
    Reply.ErrorMessage = Req.status().message();
    return encodeReply(Reply);
  }
  // Adopt the client's trace identity for the duration of this request:
  // the spans below (and any opened inside sessions/passes) stitch under
  // the client's RPC span even though we run on the dispatcher thread.
  telemetry::TraceBinding Bind(Req->TraceId, Req->SpanId);
  telemetry::SpanScope Span(
      telemetry::Tracer::global().enabled()
          ? std::string("service:") + requestKindName(Req->Kind)
          : std::string(),
      "service");
  Stopwatch Watch;
  // The request's cancel token: deadline from the wire budget, abort from
  // the watchdog's poisoning flag, and every poll bumps the liveness
  // heartbeat the watchdog reads.
  util::CancelToken Token;
  if (Req->DeadlineMs)
    Token.armDeadlineMs(Req->DeadlineMs);
  Token.watchAbortFlag(&AbortRequested);
  Token.attachProgressCounter(&ProgressTicks);
  OpsStarted.fetch_add(1, std::memory_order_relaxed);
  std::string ReplyBytes = handleLocked(*Req, Token);
  OpsFinished.fetch_add(1, std::memory_order_relaxed);
  ProgressTicks.fetch_add(1, std::memory_order_relaxed);
  rpcsTotal(Req->Kind).inc();
  rpcLatencyUs(Req->Kind).observeUs(Watch.elapsedUs());
  return ReplyBytes;
}

std::string CompilerService::handleLocked(const RequestEnvelope &Req,
                                          const util::CancelToken &Token) {
  ReplyEnvelope Reply;
  std::lock_guard<std::mutex> Lock(Mutex);
  // Retry of a request we already executed: replay the stored reply. This
  // is checked before the op accounting and the service.handle fault
  // point — a dedup hit performs no compiler work. DeadlineExceeded
  // replies are cached like any other executed result: the retry of a
  // logical call only ever has *less* budget, so replaying the stored
  // rejection is always correct, and it keeps a partially-applied batch
  // from being applied twice.
  if (Req.RequestId) {
    if (std::shared_ptr<const std::string> Served =
            ServedReplies.get(Req.RequestId)) {
      dedupReplaysTotal().inc();
      return *Served;
    }
  }
  OpsHandled.fetch_add(1, std::memory_order_relaxed);
  if (fault::FaultAction F = CG_FAULT_POINT("service.handle", &Token)) {
    if (F.isCrash())
      Crashed.store(true, std::memory_order_relaxed);
    else if (F.isError()) {
      // An injected pre-dispatch error is proof the op never executed, so
      // (like session-loss replies) it is not pinned in the dedup cache: a
      // retry of the same RequestId should re-execute, not replay it.
      Reply.Code = F.Error.code();
      Reply.ErrorMessage = F.Error.message();
      return encodeReply(Reply);
    }
  }
  if (Crashed.load(std::memory_order_relaxed)) {
    Reply.Code = StatusCode::Aborted;
    Reply.ErrorMessage = "compiler service crashed";
    return encodeReply(Reply);
  }
  if (Token.expired()) {
    // Reject before doing any work: the client has already (or will have,
    // by the time this reply crosses the queue) given up on this budget.
    deadlineExceededServiceTotal().inc();
    telemetry::SpanScope RejectSpan("deadline.reject", "service");
    Reply.Code = StatusCode::DeadlineExceeded;
    Reply.ErrorMessage = "deadline expired before dispatch (budget " +
                         std::to_string(Req.DeadlineMs) + "ms)";
  } else if (Token.aborted()) {
    // Watchdog poisoning raced this op into the queue; bounce it like a
    // crash so the client fails over immediately.
    Reply.Code = StatusCode::Aborted;
    Reply.ErrorMessage = "compiler service abort requested";
    return encodeReply(Reply);
  } else {
    Reply = dispatch(Req, Token);
  }
  std::string ReplyBytes;
  {
    telemetry::SpanScope EncodeSpan("encode.reply", "service");
    ReplyBytes = encodeReply(Reply);
  }
  // A session-loss reply is proof the op never executed, so at-most-once
  // does not require pinning it; caching it would make a retry of the same
  // RequestId replay the error even after the session was restored
  // (gateway snapshot restore re-issues the op under its original id).
  bool SessionLoss = Reply.Code == StatusCode::NotFound &&
                     Reply.ErrorMessage.rfind("no session", 0) == 0;
  if (Req.RequestId && !SessionLoss)
    ServedReplies.insert(Req.RequestId,
                         std::make_shared<const std::string>(ReplyBytes));
  return ReplyBytes;
}

ReplyEnvelope CompilerService::dispatch(const RequestEnvelope &Req,
                                        const util::CancelToken &Token) {
  ReplyEnvelope Reply;
  auto fail = [&](const Status &S) {
    Reply.Code = S.code();
    Reply.ErrorMessage = S.message();
    return Reply;
  };

  switch (Req.Kind) {
  case RequestKind::Heartbeat:
    return Reply;

  case RequestKind::StartSession: {
    std::unique_ptr<CompilationSession> Session =
        createCompilationSession(Req.Start.CompilerName);
    if (!Session)
      return fail(notFound("no compiler service registered as '" +
                           Req.Start.CompilerName + "'"));
    std::vector<ActionSpace> Spaces = Session->getActionSpaces();
    if (Spaces.empty())
      return fail(internalError("compiler exposes no action spaces"));
    const ActionSpace *Chosen = &Spaces.front();
    if (!Req.Start.ActionSpaceName.empty()) {
      Chosen = nullptr;
      for (const ActionSpace &S : Spaces)
        if (S.Name == Req.Start.ActionSpaceName)
          Chosen = &S;
      if (!Chosen)
        return fail(notFound("no action space '" +
                             Req.Start.ActionSpaceName + "'"));
    }
    if (Status S = Session->init(*Chosen, Req.Start.Bench); !S.isOk())
      return fail(S);
    // Replay-free crash recovery: a recovering client names the state it
    // was at; the backend restores the matching snapshot when it still
    // exists. On failure the session simply starts at the initial state
    // and the client replays (the pre-snapshot protocol).
    if (Req.Start.RestoreStateKey)
      Reply.Start.Restored = Session->restore(Req.Start.RestoreStateKey);
    Reply.Start.SessionId = NextSessionId++;
    Reply.Start.Space = *Chosen;
    Reply.Start.ObservationSpaces = Session->getObservationSpaces();
    Sessions.emplace(Reply.Start.SessionId, std::move(Session));
    return Reply;
  }

  case RequestKind::EndSession: {
    Sessions.erase(Req.End.SessionId);
    return Reply;
  }

  case RequestKind::Step: {
    auto It = Sessions.find(Req.Step.SessionId);
    if (It == Sessions.end())
      return fail(notFound("no session " +
                           std::to_string(Req.Step.SessionId)));
    CompilationSession &Session = *It->second;
    // Attach the request's token for the duration of this RPC so the
    // backend's long-running work (pass pipelines) can poll it; the token
    // is stack-allocated in handle(), hence the unconditional detach.
    Session.setCancelToken(&Token);
    struct TokenDetach {
      CompilationSession &S;
      ~TokenDetach() { S.setCancelToken(nullptr); }
    } Detach{Session};
    bool End = false, SpaceChanged = false;
    {
      // Batched execution (§III-B5): apply every action, observe once.
      telemetry::SpanScope ApplySpan("session.apply_actions", "service");
      for (const Action &A : Req.Step.Actions) {
        if (fault::FaultAction F =
                CG_FAULT_POINT("service.apply_actions", &Token)) {
          if (F.isCrash()) {
            Crashed.store(true, std::memory_order_relaxed);
            return fail(abortedError("compiler service crashed"));
          }
          if (F.isError())
            return fail(F.Error);
        }
        bool StepEnd = false, StepChanged = false;
        if (Status S = Session.applyAction(A, StepEnd, StepChanged);
            !S.isOk()) {
          if (S.code() == StatusCode::DeadlineExceeded)
            deadlineExceededServiceTotal().inc();
          return fail(S);
        }
        End |= StepEnd;
        SpaceChanged |= StepChanged;
        if (End)
          break;
      }
    }
    Reply.Step.EndOfSession = End;
    Reply.Step.ActionSpaceChanged = SpaceChanged;
    if (SpaceChanged)
      Reply.Step.NewSpace = Session.currentActionSpace();
    // Space metadata is only needed when observations were requested; the
    // common step-without-observation request skips building the list.
    std::vector<ObservationSpaceInfo> Known;
    if (!Req.Step.ObservationSpaces.empty())
      Known = Session.getObservationSpaces();
    // State key for the observation cache and the delta handshake,
    // computed at most once per request.
    uint64_t StateKey = 0;
    bool HaveStateKey = false;
    auto stateKeyOnce = [&] {
      if (!HaveStateKey) {
        StateKey = Session.stateKey();
        HaveStateKey = true;
      }
      return StateKey;
    };
    for (size_t I = 0; I < Req.Step.ObservationSpaces.size(); ++I) {
      const std::string &SpaceName = Req.Step.ObservationSpaces[I];
      const ObservationSpaceInfo *Info = nullptr;
      for (const ObservationSpaceInfo &O : Known)
        if (O.Name == SpaceName)
          Info = &O;
      if (!Info)
        return fail(notFound("no observation space '" + SpaceName + "'"));
      telemetry::SpanScope ObsSpan(
          telemetry::Tracer::global().enabled() ? "observe:" + SpaceName
                                                : std::string(),
          "service");
      // Only deterministic observations are cached or delta-encoded;
      // Runtime-style spaces vary per measurement and must always be
      // recomputed and shipped in full.
      uint64_t Key = Info->Deterministic ? stateKeyOnce() : 0;
      uint64_t CurKey = deltaEligible(Info->Type) ? Key : 0;
      // Delta handshake: the client advertised the key of a full value it
      // retains. When the state has not moved since, reply with an empty
      // "unchanged" delta before computing (or even copying) anything —
      // the repeat-query hot path costs a state-key compare.
      uint64_t BaseKey = I < Req.Step.ObservationBaseKeys.size()
                             ? Req.Step.ObservationBaseKeys[I]
                             : 0;
      Reply.Step.ObservationNames.push_back(SpaceName);
      if (CurKey && BaseKey == CurKey) {
        Observation Delta;
        Delta.Type = Info->Type;
        Delta.IsDelta = true;
        Delta.StateKey = CurKey;
        Delta.BaseKey = BaseKey;
        deltaRepliesTotal().inc();
        Reply.Step.Observations.push_back(std::move(Delta));
        continue;
      }
      // The client's base is the cached value at its key. Look it up
      // before inserting the new value, so a large base is not evicted by
      // the value that replaces it.
      std::shared_ptr<const Observation> Base =
          CurKey && BaseKey ? ObsCache->lookup(BaseKey, SpaceName) : nullptr;
      std::shared_ptr<const Observation> Cached =
          Key ? ObsCache->lookup(Key, SpaceName) : nullptr;
      Observation Obs;
      if (!Cached) {
        if (Status S = Session.computeObservation(*Info, Obs); !S.isOk())
          return fail(S);
        Obs.StateKey = CurKey;
        if (Key)
          Cached = ObsCache->insert(Key, SpaceName, std::move(Obs));
      }
      // The state moved (or the client holds no base): answer with only
      // the changed segments when the base is still cached, falling back
      // to the full payload.
      if (Base) {
        telemetry::SpanScope DeltaSpan("delta.encode", "service");
        Observation Delta;
        if (encodeObservationDelta(*Base, *Cached, Delta)) {
          Delta.StateKey = CurKey;
          Delta.BaseKey = BaseKey;
          deltaRepliesTotal().inc();
          Reply.Step.Observations.push_back(std::move(Delta));
          continue;
        }
      }
      fullRepliesTotal().inc();
      if (Cached)
        Reply.Step.Observations.push_back(*Cached);
      else
        Reply.Step.Observations.push_back(std::move(Obs));
    }
    // Tell the client where it now is, so a later crash recovery can
    // restore this exact state by key instead of replaying actions.
    Reply.Step.SessionStateKey = stateKeyOnce();
    return Reply;
  }

  case RequestKind::Fork: {
    auto It = Sessions.find(Req.Fork.SessionId);
    if (It == Sessions.end())
      return fail(notFound("no session " +
                           std::to_string(Req.Fork.SessionId)));
    StatusOr<std::unique_ptr<CompilationSession>> Forked =
        It->second->fork();
    if (!Forked.isOk())
      return fail(Forked.status());
    Reply.Fork.SessionId = NextSessionId++;
    Sessions.emplace(Reply.Fork.SessionId, Forked.takeValue());
    return Reply;
  }
  }
  return fail(internalError("unhandled request kind"));
}
