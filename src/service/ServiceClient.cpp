//===- service/ServiceClient.cpp ------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ServiceClient.h"

#include "fault/FaultRegistry.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"
#include "util/Logging.h"
#include "util/Timer.h"

#include <atomic>
#include <thread>

using namespace compiler_gym;
using namespace compiler_gym::service;

namespace {

using telemetry::Counter;
using telemetry::Histogram;
using telemetry::MetricsRegistry;

Counter &rpcAttemptsTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_client_rpcs_total", {},
      "RPC attempts issued by frontend clients (retries included)");
  return C;
}

Counter &retriesTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_client_retries_total", {},
      "Transient-failure RPC retries (unavailable, deadline, garbled)");
  return C;
}

Counter &restartsTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_client_service_restarts_total", {},
      "Backend relaunches requested after crash/hang");
  return C;
}

Counter &reconnectsTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_client_reconnects_total", {},
      "Retries that followed channel loss (Unavailable) — reconnect-shaped "
      "failures, as opposed to deadline or garbled-reply retries");
  return C;
}

Counter &deadlineExceededClientTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_rpc_deadline_exceeded_total", {{"layer", "client"}},
      "RPCs abandoned at a layer because the remaining deadline budget ran "
      "out");
  return C;
}

Counter &backpressureRetriesTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_client_backpressure_retries_total", {},
      "Retries that honored a typed retry-after hint from server-side flow "
      "control (gateway admission/rate/queue limits)");
  return C;
}

Counter &wireBytes(bool Sent) {
  static Counter &S = MetricsRegistry::global().counter(
      "cg_wire_bytes_total", {{"direction", "sent"}},
      "Serialized RPC bytes through frontend clients");
  static Counter &R = MetricsRegistry::global().counter(
      "cg_wire_bytes_total", {{"direction", "received"}},
      "Serialized RPC bytes through frontend clients");
  return Sent ? S : R;
}

Histogram &rpcLatencyUs(RequestKind Kind) {
  static MetricsRegistry &M = MetricsRegistry::global();
  static const char *Help =
      "Client-observed RPC latency (all attempts, in microseconds)";
  static Histogram &Start = M.histogram(
      "cg_client_rpc_latency_us", {{"kind", "start_session"}}, Help);
  static Histogram &End =
      M.histogram("cg_client_rpc_latency_us", {{"kind", "end_session"}}, Help);
  static Histogram &Step =
      M.histogram("cg_client_rpc_latency_us", {{"kind", "step"}}, Help);
  static Histogram &Fork =
      M.histogram("cg_client_rpc_latency_us", {{"kind", "fork"}}, Help);
  static Histogram &Heartbeat =
      M.histogram("cg_client_rpc_latency_us", {{"kind", "heartbeat"}}, Help);
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

} // namespace

ServiceClient::ServiceClient(std::shared_ptr<CompilerService> Service,
                             std::shared_ptr<Transport> Channel,
                             ClientOptions Opts)
    : Service(std::move(Service)), Channel(std::move(Channel)), Opts(Opts) {
  (void)deadlineExceededClientTotal();
}

ServiceClient::ServiceClient(std::shared_ptr<CompilerService> Service,
                             ClientOptions Opts)
    : Service(Service),
      Channel(std::make_shared<QueueTransport>(
          [Service](const std::string &Bytes) {
            return Service->handle(Bytes);
          })),
      Opts(Opts) {
  (void)deadlineExceededClientTotal();
}

void ServiceClient::restartService() {
  // Remote channels have no in-process backend handle; restarting the far
  // end is the server fleet's job and this degrades to a no-op.
  if (!Service)
    return;
  restartsTotal().inc();
  Service->restart();
}

StatusOr<ReplyEnvelope> ServiceClient::call(RequestEnvelope &Req) {
  // Process-wide unique: several clients may share one service shard.
  static std::atomic<uint64_t> NextRequestId{1};
  Req.RequestId = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  Req.AuthToken = Opts.AuthToken;
  telemetry::SpanScope Span(
      telemetry::Tracer::global().enabled()
          ? std::string("rpc:") + requestKindName(Req.Kind)
          : std::string(),
      "client");
  // Stitch service-side spans under this RPC span: the context now names
  // the span just opened above (or zeros when tracing is off/unsampled).
  telemetry::TraceContext Ctx = telemetry::currentTraceContext();
  Req.TraceId = Ctx.TraceId;
  Req.SpanId = Ctx.SpanId;
  Stopwatch Watch;
  StatusOr<ReplyEnvelope> Reply = callAttempts(Req);
  rpcLatencyUs(Req.Kind).observeUs(Watch.elapsedUs());
  return Reply;
}

int ServiceClient::backoffDelayMs(int Attempt, uint32_t RetryAfterHintMs) {
  // min(cap, base * 2^(attempt-1)), computed without overflow for large
  // attempt counts.
  int64_t DelayMs = Opts.RetryBackoffMs > 0 ? Opts.RetryBackoffMs : 1;
  for (int I = 1; I < Attempt && DelayMs < Opts.RetryBackoffMaxMs; ++I)
    DelayMs *= 2;
  if (DelayMs > Opts.RetryBackoffMaxMs)
    DelayMs = Opts.RetryBackoffMaxMs;
  // ±50% jitter de-synchronizes client fleets that failed in lockstep.
  DelayMs = DelayMs / 2 + static_cast<int64_t>(BackoffJitter.bounded(
                              static_cast<uint64_t>(DelayMs) + 1));
  if (DelayMs < RetryAfterHintMs)
    DelayMs = RetryAfterHintMs;
  return static_cast<int>(DelayMs);
}

StatusOr<std::string> ServiceClient::roundTrip(const std::string &Bytes,
                                               int TimeoutMs) {
  fault::FaultAction Req = CG_FAULT_POINT("transport.round_trip", nullptr);
  if (Req.isError())
    return Req.Error;
  if (Req.isCrash())
    return unavailable("injected transport disconnect");
  StatusOr<std::string> Reply = Channel->roundTrip(Bytes, TimeoutMs);
  if (!Reply.isOk())
    return Reply;
  fault::FaultAction Resp = CG_FAULT_POINT("transport.reply", nullptr);
  if (Resp.isError())
    return Resp.Error;
  if (Resp.isCrash())
    return unavailable("injected transport disconnect (reply)");
  // A corrupt reply never decodes, so it reaches the garbled-reply retry.
  Req.corruptReply(*Reply);
  Resp.corruptReply(*Reply);
  return Reply;
}

StatusOr<ReplyEnvelope> ServiceClient::callAttempts(RequestEnvelope &Req) {
  // With deadline propagation, TimeoutMs is an *overall* per-call budget:
  // every attempt is stamped with (and waits no longer than) the budget
  // still remaining, and backoff sleeps draw the budget down instead of
  // extending the call. With it off, each attempt gets the full TimeoutMs
  // and no deadline crosses the wire (legacy behavior).
  Stopwatch Budget;
  Status LastError = internalError("no attempt made");
  // Flow-control rejections carry a typed retry-after hint; the next
  // attempt honors it as a floor on the backoff delay, and if retries run
  // out the decoded envelope (not a channel error) is what we return.
  uint32_t RetryAfterHintMs = 0;
  bool HaveTypedRejection = false;
  ReplyEnvelope TypedRejection;
  bool BudgetExhausted = false;
  bool Attempted = false;
  for (int Attempt = 0; Attempt <= Opts.MaxRetries; ++Attempt) {
    if (Attempt > 0) {
      int DelayMs = backoffDelayMs(Attempt, RetryAfterHintMs);
      if (Opts.PropagateDeadline &&
          Budget.elapsedMs() + DelayMs >= Opts.TimeoutMs) {
        // Sleeping would burn the rest of the budget; give up now rather
        // than stamp a zero deadline the service would just bounce.
        BudgetExhausted = true;
        break;
      }
      retriesTotal().inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
      RetryAfterHintMs = 0;
    }
    int AttemptTimeoutMs = Opts.TimeoutMs;
    if (Opts.PropagateDeadline) {
      int64_t RemainingMs =
          Opts.TimeoutMs - static_cast<int64_t>(Budget.elapsedMs());
      if (RemainingMs <= 0) {
        BudgetExhausted = true;
        break;
      }
      Req.DeadlineMs = static_cast<uint32_t>(RemainingMs);
      AttemptTimeoutMs = static_cast<int>(RemainingMs);
    }
    std::string Bytes = encodeRequest(Req);
    Attempted = true;
    rpcAttemptsTotal().inc();
    wireBytes(true).inc(Bytes.size());
    StatusOr<std::string> ReplyBytes = roundTrip(Bytes, AttemptTimeoutMs);
    if (!ReplyBytes.isOk()) {
      LastError = ReplyBytes.status();
      // Unavailable and dropped replies are transient; hangs surface as
      // DeadlineExceeded which we also retry (the request may simply have
      // been slow) before giving up.
      if (LastError.code() == StatusCode::Unavailable) {
        reconnectsTotal().inc();
        continue;
      }
      if (LastError.code() == StatusCode::DeadlineExceeded)
        continue;
      return LastError;
    }
    wireBytes(false).inc(ReplyBytes->size());
    StatusOr<ReplyEnvelope> Reply = decodeReply(*ReplyBytes);
    if (!Reply.isOk()) {
      // Garbled reply: a transport fault; retry.
      LastError = unavailable("garbled reply: " + Reply.status().message());
      CG_LOG_INFO_FOR("client", Req.RequestId)
          << "retrying garbled service reply";
      continue;
    }
    if (Reply->Code == StatusCode::Unavailable && Reply->RetryAfterMs > 0 &&
        Attempt < Opts.MaxRetries) {
      // Typed backpressure: the server rejected the request by flow
      // control, not because anything died. Retrying the same envelope
      // (same RequestId — dedup-safe) after the hinted delay is correct;
      // surfacing it would wrongly trigger restart-and-replay recovery.
      backpressureRetriesTotal().inc();
      RetryAfterHintMs = Reply->RetryAfterMs;
      HaveTypedRejection = true;
      TypedRejection = std::move(*Reply);
      CG_LOG_INFO_FOR("client", Req.RequestId)
          << "backpressure: retrying after " << RetryAfterHintMs << "ms";
      continue;
    }
    return Reply;
  }
  // Out of retries. A typed rejection beats a channel error: callers see
  // the server's Unavailable + message rather than a transport artifact.
  if (BudgetExhausted)
    deadlineExceededClientTotal().inc();
  if (HaveTypedRejection)
    return TypedRejection;
  if (BudgetExhausted && !Attempted)
    return deadlineExceeded("RPC budget exhausted before any attempt");
  return LastError;
}

StatusOr<StartSessionReply>
ServiceClient::startSession(const StartSessionRequest &Req) {
  RequestEnvelope Env;
  Env.Kind = RequestKind::StartSession;
  Env.Start = Req;
  CG_ASSIGN_OR_RETURN(ReplyEnvelope Reply, call(Env));
  if (Status S = Reply.status(); !S.isOk())
    return S;
  return Reply.Start;
}

Status ServiceClient::endSession(uint64_t SessionId) {
  RequestEnvelope Env;
  Env.Kind = RequestKind::EndSession;
  Env.End.SessionId = SessionId;
  StatusOr<ReplyEnvelope> Reply = call(Env);
  if (!Reply.isOk())
    return Reply.status();
  return Reply->status();
}

StatusOr<StepReply> ServiceClient::step(const StepRequest &Req) {
  RequestEnvelope Env;
  Env.Kind = RequestKind::Step;
  Env.Step = Req;
  CG_ASSIGN_OR_RETURN(ReplyEnvelope Reply, call(Env));
  if (Status S = Reply.status(); !S.isOk())
    return S;
  return Reply.Step;
}

StatusOr<uint64_t> ServiceClient::fork(uint64_t SessionId) {
  RequestEnvelope Env;
  Env.Kind = RequestKind::Fork;
  Env.Fork.SessionId = SessionId;
  CG_ASSIGN_OR_RETURN(ReplyEnvelope Reply, call(Env));
  if (Status S = Reply.status(); !S.isOk())
    return S;
  return Reply.Fork.SessionId;
}

Status ServiceClient::heartbeat() {
  RequestEnvelope Env;
  Env.Kind = RequestKind::Heartbeat;
  StatusOr<ReplyEnvelope> Reply = call(Env);
  if (!Reply.isOk())
    return Reply.status();
  return Reply->status();
}
