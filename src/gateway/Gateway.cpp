//===- gateway/Gateway.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locking hierarchy (acquire downwards, never upwards):
//   SessionEntry::M  — per-session op lock; serializes backend ops,
//                      transparent restore and drain migration for one
//                      session. Held across backend RPCs (by design: the
//                      backend protocol is one-op-per-session-at-a-time).
//   SessionsM        — the session table, tenant/global admission counts
//                      and per-shard placement counts. Never held across
//                      an RPC.
//   ShardState::M    — one shard's dispatch queues. Never held across an
//                      RPC.
// TenantState::BucketM is a leaf (token-bucket arithmetic only).
//
//===----------------------------------------------------------------------===//

#include "gateway/Gateway.h"

#include "fault/FaultRegistry.h"
#include "service/Serialization.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"
#include "util/Logging.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::gateway;
using service::ReplyEnvelope;
using service::RequestEnvelope;
using service::RequestKind;

namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::MetricsRegistry;

Counter &requestsTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_gateway_requests_total", {}, "Requests received by gateways");
  return C;
}

Counter &authFailuresTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_gateway_auth_failures_total", {},
      "Requests rejected for an unknown tenant token");
  return C;
}

Counter &rejectedTotal(const char *Reason) {
  static MetricsRegistry &M = MetricsRegistry::global();
  static const char *Help =
      "Flow-control rejections (explicit Unavailable + retry-after), by "
      "reason";
  static Counter &Admission = M.counter("cg_gateway_rejected_total",
                                        {{"reason", "admission"}}, Help);
  static Counter &Rate =
      M.counter("cg_gateway_rejected_total", {{"reason", "rate"}}, Help);
  static Counter &Queue =
      M.counter("cg_gateway_rejected_total", {{"reason", "queue"}}, Help);
  if (std::string(Reason) == "admission")
    return Admission;
  if (std::string(Reason) == "rate")
    return Rate;
  return Queue;
}

Gauge &sessionsGauge() {
  static Gauge &G = MetricsRegistry::global().gauge(
      "cg_gateway_sessions", {}, "Live gateway sessions across all tenants");
  return G;
}

Counter &restoresTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_gateway_restores_total", {},
      "Transparent snapshot restores after backend session loss");
  return C;
}

Counter &migrationsTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_gateway_migrations_total", {},
      "Sessions moved between shards by drainShard()");
  return C;
}

Counter &shedExpiredTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_gateway_shed_expired_total", {},
      "Queued ops shed at dequeue for exhausted/insufficient deadline "
      "budget");
  return C;
}

Counter &deadlineExceededGatewayTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_rpc_deadline_exceeded_total", {{"layer", "gateway"}},
      "RPCs rejected for an expired deadline, by layer");
  return C;
}

/// Serialized flow-control / error reply.
std::string errorReply(const Status &S, uint32_t RetryAfterMs) {
  ReplyEnvelope Reply;
  Reply.Code = S.code();
  Reply.ErrorMessage = S.message();
  Reply.RetryAfterMs = RetryAfterMs;
  return service::encodeReply(Reply);
}

bool isBackendSessionLoss(const ReplyEnvelope &Reply) {
  return Reply.Code == StatusCode::NotFound &&
         Reply.ErrorMessage.rfind("no session", 0) == 0;
}

} // namespace

namespace {

struct TenantState {
  TenantConfig Cfg;
  size_t Index = 0;       ///< Position in the dispatcher queue arrays.
  Counter *DispatchedCtr = nullptr;

  // Token bucket.
  std::mutex BucketM;
  double Tokens = 0;
  std::chrono::steady_clock::time_point LastRefill;

  // Guarded by Impl::SessionsM.
  size_t LiveSessions = 0;

  /// Takes one token; false = rejected, with the refill wait in
  /// \p RetryAfterMs.
  bool allow(uint32_t &RetryAfterMs) {
    if (Cfg.StepsPerSec <= 0)
      return true;
    std::lock_guard<std::mutex> Lock(BucketM);
    auto Now = std::chrono::steady_clock::now();
    double Dt = std::chrono::duration<double>(Now - LastRefill).count();
    LastRefill = Now;
    Tokens = std::min(Cfg.Burst, Tokens + Dt * Cfg.StepsPerSec);
    if (Tokens >= 1.0) {
      Tokens -= 1.0;
      return true;
    }
    double NeedSec = (1.0 - Tokens) / Cfg.StepsPerSec;
    RetryAfterMs = static_cast<uint32_t>(
        std::max(1.0, std::ceil(NeedSec * 1000.0)));
    return false;
  }
};

struct SessionEntry {
  std::mutex M; ///< Op lock; see the hierarchy note at the top.
  uint64_t GwId = 0;
  /// Atomic so the handler can read a routing hint without M; writes
  /// (migration) happen under M.
  std::atomic<size_t> Shard{0};
  uint64_t BackendId = 0;
  /// Content-addressed key of the last committed step — what a restore
  /// or migration reconstructs from.
  uint64_t LastStateKey = 0;
  /// The original start parameters, replayed on restore/migration.
  service::StartSessionRequest Start;
  TenantState *Tenant = nullptr;
  bool Dead = false; ///< Dropped from the table; queued ops must bounce.
};

struct Job {
  RequestEnvelope Env;
  net::ReplyFn Reply;
  std::shared_ptr<SessionEntry> Entry; ///< Null for StartSession.
  TenantState *Tenant = nullptr;
  /// StartSession/Fork reserved an admission slot that must be released
  /// if the op fails or is abandoned.
  bool HoldsAdmission = false;
  /// Absolute deadline derived from the envelope's remaining-budget
  /// DeadlineMs at intake; drives dequeue-time shedding and the backend
  /// re-stamp.
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline{};
};

struct ShardState {
  explicit ShardState(size_t Index, size_t NumTenants)
      : Index(Index), Queues(NumTenants) {}

  const size_t Index;
  std::mutex M;
  std::condition_variable Work;
  std::vector<std::deque<Job>> Queues; ///< One per tenant.
  size_t Pending = 0;
  bool Paused = false;
  bool Stopping = false;
  size_t Cursor = 0;        ///< WRR: tenant currently being served.
  size_t ServedInBurst = 0; ///< Ops served from Cursor this turn.
  /// EWMA of this shard's backend round-trip time, µs (0 until the first
  /// sample). Relaxed: a stale read only mistunes one shed decision.
  std::atomic<int64_t> EwmaUs{0};
  std::thread Dispatcher;
};

} // namespace

struct Gateway::Impl {
  explicit Impl(GatewayOptions O)
      : Opts(std::move(O)), Broker(brokerOptions(Opts)) {}

  static runtime::BrokerOptions brokerOptions(const GatewayOptions &O) {
    runtime::BrokerOptions B;
    B.NumShards = std::max<size_t>(1, O.NumShards);
    B.MonitorIntervalMs = O.MonitorIntervalMs;
    B.StallWindowMs = O.StallWindowMs;
    return B;
  }

  GatewayOptions Opts;
  runtime::ServiceBroker Broker;
  std::vector<std::unique_ptr<TenantState>> Tenants;
  std::unordered_map<std::string, TenantState *> ByToken;

  mutable std::mutex SessionsM;
  std::unordered_map<uint64_t, std::shared_ptr<SessionEntry>> Sessions;
  uint64_t NextGwId = 1;
  size_t TotalSessions = 0;
  std::vector<size_t> ShardSessions; ///< Placement counts, per shard.
  std::vector<bool> ShardDraining;

  mutable std::mutex ShardsM;
  std::vector<std::unique_ptr<ShardState>> Queues;

  /// Created last, torn down first: while it lives, onRequest may fire.
  std::unique_ptr<net::NetServer> Server;

  // -- Lifecycle -------------------------------------------------------------

  Status start() {
    // Pre-register the robustness series so they scrape as zero before the
    // first shed/expiry instead of being absent.
    shedExpiredTotal();
    deadlineExceededGatewayTotal();
    if (Opts.Tenants.empty()) {
      // Single-user mode: one implicit tenant matching the default empty
      // client token, with no limits.
      TenantConfig Anon;
      Anon.Name = "default";
      Anon.MaxSessions = 0;
      Opts.Tenants.push_back(Anon);
    }
    for (size_t I = 0; I < Opts.Tenants.size(); ++I) {
      auto T = std::make_unique<TenantState>();
      T->Cfg = Opts.Tenants[I];
      T->Index = I;
      T->Tokens = T->Cfg.Burst;
      T->LastRefill = std::chrono::steady_clock::now();
      T->DispatchedCtr = &MetricsRegistry::global().counter(
          "cg_gateway_dispatched_total", {{"tenant", T->Cfg.Name}},
          "Ops dispatched to backend shards, per tenant");
      if (!ByToken.emplace(T->Cfg.Token, T.get()).second)
        return invalidArgument("duplicate tenant token for '" + T->Cfg.Name +
                               "'");
      Tenants.push_back(std::move(T));
    }
    size_t NumShards = Broker.numShards();
    ShardSessions.assign(NumShards, 0);
    ShardDraining.assign(NumShards, false);
    for (size_t I = 0; I < NumShards; ++I)
      startDispatcher(I);
    CG_ASSIGN_OR_RETURN(
        Server, net::NetServer::serve(
                    Opts.Listen,
                    [this](std::string Bytes, net::ReplyFn Reply) {
                      onRequest(std::move(Bytes), std::move(Reply));
                    },
                    Opts.Server));
    return Status::ok();
  }

  void startDispatcher(size_t Shard) {
    std::lock_guard<std::mutex> Lock(ShardsM);
    Queues.push_back(std::make_unique<ShardState>(Shard, Tenants.size()));
    ShardState *S = Queues.back().get();
    S->Dispatcher = std::thread([this, S] { dispatchLoop(*S); });
  }

  void stop() {
    // Listener first: after this no handler can enqueue.
    Server.reset();
    std::vector<ShardState *> All;
    {
      std::lock_guard<std::mutex> Lock(ShardsM);
      for (auto &S : Queues)
        All.push_back(S.get());
    }
    for (ShardState *S : All) {
      {
        std::lock_guard<std::mutex> Lock(S->M);
        S->Stopping = true;
      }
      S->Work.notify_all();
    }
    for (ShardState *S : All)
      if (S->Dispatcher.joinable())
        S->Dispatcher.join();
    // Broker (and its shards' dispatcher threads) dies with Impl.
  }

  ShardState &shardQueue(size_t Shard) {
    std::lock_guard<std::mutex> Lock(ShardsM);
    return *Queues[Shard];
  }

  // -- Admission / placement -------------------------------------------------

  TenantState *authenticate(const std::string &Token) {
    auto It = ByToken.find(Token); // Table is immutable after start().
    return It == ByToken.end() ? nullptr : It->second;
  }

  Status admitSession(TenantState *T) {
    std::lock_guard<std::mutex> Lock(SessionsM);
    if (T->Cfg.MaxSessions && T->LiveSessions >= T->Cfg.MaxSessions)
      return unavailable("tenant '" + T->Cfg.Name +
                         "' is at its session limit (" +
                         std::to_string(T->Cfg.MaxSessions) + ")");
    if (Opts.MaxSessionsTotal && TotalSessions >= Opts.MaxSessionsTotal)
      return unavailable("gateway is at its session limit (" +
                         std::to_string(Opts.MaxSessionsTotal) + ")");
    ++T->LiveSessions;
    ++TotalSessions;
    return Status::ok();
  }

  void releaseAdmission(TenantState *T) {
    std::lock_guard<std::mutex> Lock(SessionsM);
    --T->LiveSessions;
    --TotalSessions;
  }

  /// Least-populated non-draining shard; bumps its placement count.
  /// SIZE_MAX when every shard is draining.
  size_t reserveShard() {
    std::lock_guard<std::mutex> Lock(SessionsM);
    size_t Best = SIZE_MAX;
    for (size_t I = 0; I < ShardSessions.size(); ++I) {
      if (ShardDraining[I])
        continue;
      if (Best == SIZE_MAX || ShardSessions[I] < ShardSessions[Best])
        Best = I;
    }
    if (Best != SIZE_MAX)
      ++ShardSessions[Best];
    return Best;
  }

  void unreserveShard(size_t Shard) {
    std::lock_guard<std::mutex> Lock(SessionsM);
    --ShardSessions[Shard];
  }

  std::shared_ptr<SessionEntry> findSession(uint64_t GwId) {
    std::lock_guard<std::mutex> Lock(SessionsM);
    auto It = Sessions.find(GwId);
    return It == Sessions.end() ? nullptr : It->second;
  }

  /// Registers a freshly created backend session. The admission slot was
  /// reserved by the handler; the shard slot by reserveShard().
  std::shared_ptr<SessionEntry>
  registerSession(TenantState *T, size_t Shard, uint64_t BackendId,
                  const service::StartSessionRequest &Start,
                  uint64_t LastStateKey) {
    auto Entry = std::make_shared<SessionEntry>();
    Entry->Shard.store(Shard, std::memory_order_relaxed);
    Entry->BackendId = BackendId;
    Entry->Start = Start;
    Entry->Start.RestoreStateKey = 0;
    Entry->LastStateKey = LastStateKey;
    Entry->Tenant = T;
    std::lock_guard<std::mutex> Lock(SessionsM);
    Entry->GwId = NextGwId++;
    Sessions.emplace(Entry->GwId, Entry);
    sessionsGauge().add(1);
    return Entry;
  }

  /// Removes \p Entry from the table and returns its resources. Caller
  /// holds Entry->M.
  void dropSession(SessionEntry &Entry) {
    if (Entry.Dead)
      return;
    Entry.Dead = true;
    {
      std::lock_guard<std::mutex> Lock(SessionsM);
      Sessions.erase(Entry.GwId);
      --Entry.Tenant->LiveSessions;
      --TotalSessions;
      --ShardSessions[Entry.Shard.load(std::memory_order_relaxed)];
    }
    sessionsGauge().add(-1);
  }

  // -- Request intake (NetServer handler threads) ----------------------------

  void reject(const char *Reason, net::ReplyFn &Reply, const Status &S,
              uint32_t RetryAfterMs) {
    rejectedTotal(Reason).inc();
    Reply(errorReply(S, RetryAfterMs));
  }

  void onRequest(std::string Bytes, net::ReplyFn Reply) {
    requestsTotal().inc();
    StatusOr<RequestEnvelope> Req = service::decodeRequest(Bytes);
    if (!Req.isOk()) {
      Reply(errorReply(Req.status(), 0));
      return;
    }
    TenantState *T = authenticate(Req->AuthToken);
    if (!T) {
      authFailuresTotal().inc();
      Reply(errorReply(
          failedPrecondition("unknown tenant token"), 0));
      return;
    }
    // Heartbeats answer locally: they probe the gateway, not a shard, and
    // must work even when every queue is saturated.
    if (Req->Kind == RequestKind::Heartbeat) {
      Reply(service::encodeReply(ReplyEnvelope{}));
      return;
    }

    Job J;
    J.Env = std::move(*Req);
    J.Reply = std::move(Reply);
    J.Tenant = T;
    if (J.Env.DeadlineMs > 0) {
      // Convert the remaining-budget stamp to an absolute deadline at
      // intake: queue wait then counts against the budget, which is what
      // dequeue-time shedding and the backend re-stamp measure against.
      J.HasDeadline = true;
      J.Deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(J.Env.DeadlineMs);
    }
    size_t QueueShard = 0;

    switch (J.Env.Kind) {
    case RequestKind::StartSession: {
      Status Adm = admitSession(T);
      if (!Adm.isOk()) {
        reject("admission", J.Reply, Adm, Opts.AdmissionRetryAfterMs);
        return;
      }
      J.HoldsAdmission = true;
      // Placement happens at dispatch time (the queue wait may overlap a
      // drain); queue residency just needs spread: round-robin by id.
      QueueShard = leastLoadedQueue();
      break;
    }
    case RequestKind::Step:
    case RequestKind::Fork: {
      uint32_t Wait = 0;
      if (!T->allow(Wait)) {
        reject("rate", J.Reply,
               unavailable("rate limit exceeded for tenant '" + T->Cfg.Name +
                           "'"),
               Wait);
        return;
      }
      uint64_t GwId = J.Env.Kind == RequestKind::Step
                          ? J.Env.Step.SessionId
                          : J.Env.Fork.SessionId;
      J.Entry = findSession(GwId);
      if (!J.Entry) {
        J.Reply(errorReply(notFound("no session " + std::to_string(GwId)),
                           0));
        return;
      }
      if (J.Env.Kind == RequestKind::Fork) {
        Status Adm = admitSession(T);
        if (!Adm.isOk()) {
          reject("admission", J.Reply, Adm, Opts.AdmissionRetryAfterMs);
          return;
        }
        J.HoldsAdmission = true;
      }
      QueueShard = J.Entry->Shard.load(std::memory_order_relaxed);
      break;
    }
    case RequestKind::EndSession: {
      J.Entry = findSession(J.Env.End.SessionId);
      if (!J.Entry) {
        // Unknown EndSession is Ok, matching CompilerService semantics
        // (idempotent teardown).
        J.Reply(service::encodeReply(ReplyEnvelope{}));
        return;
      }
      QueueShard = J.Entry->Shard.load(std::memory_order_relaxed);
      break;
    }
    case RequestKind::Heartbeat:
      return; // Handled above.
    }

    // On rejection enqueue() already replied and refunded the admission
    // slot; nothing more to do either way.
    enqueue(QueueShard, std::move(J));
  }

  /// Queue spread for StartSession jobs (their backend shard is chosen at
  /// dispatch): the emptiest dispatch queue.
  size_t leastLoadedQueue() {
    std::lock_guard<std::mutex> Lock(ShardsM);
    size_t Best = 0, BestPending = SIZE_MAX;
    for (size_t I = 0; I < Queues.size(); ++I) {
      std::lock_guard<std::mutex> QLock(Queues[I]->M);
      if (Queues[I]->Pending < BestPending) {
        Best = I;
        BestPending = Queues[I]->Pending;
      }
    }
    return Best;
  }

  /// False = rejected (queue full / stopping); the job's Reply has been
  /// invoked and any admission reservation refunded.
  bool enqueue(size_t Shard, Job J) {
    ShardState &S = shardQueue(Shard);
    {
      std::lock_guard<std::mutex> Lock(S.M);
      if (!S.Stopping && S.Pending < Opts.MaxQueuePerShard) {
        S.Queues[J.Tenant->Index].push_back(std::move(J));
        ++S.Pending;
        S.Work.notify_one();
        return true;
      }
    }
    if (J.HoldsAdmission)
      releaseAdmission(J.Tenant);
    reject("queue", J.Reply,
           unavailable("shard " + std::to_string(Shard) +
                       " dispatch queue is full"),
           Opts.QueueRetryAfterMs);
    return false;
  }

  // -- Dispatch (per-shard dispatcher threads) -------------------------------

  void dispatchLoop(ShardState &S) {
    std::unique_lock<std::mutex> Lock(S.M);
    for (;;) {
      S.Work.wait(Lock, [&] {
        return S.Stopping || (!S.Paused && S.Pending > 0);
      });
      if (S.Stopping) {
        // Explicit goodbye to everything still queued — never a silent
        // drop (the reply usually evaporates with the stopped listener,
        // but a still-connected client sees a typed failure).
        for (auto &Q : S.Queues)
          while (!Q.empty()) {
            Job J = std::move(Q.front());
            Q.pop_front();
            if (J.HoldsAdmission)
              releaseAdmission(J.Tenant);
            J.Reply(errorReply(unavailable("gateway shutting down"), 0));
          }
        S.Pending = 0;
        return;
      }
      // Weighted round-robin: keep serving S.Cursor's queue until its
      // weight is spent or it runs dry, then advance.
      size_t NumTenants = S.Queues.size();
      size_t Pick = NumTenants;
      for (size_t I = 0; I < NumTenants; ++I) {
        size_t Idx = (S.Cursor + I) % NumTenants;
        if (!S.Queues[Idx].empty()) {
          Pick = Idx;
          break;
        }
      }
      if (Pick == NumTenants)
        continue; // Raced with a reject; nothing runnable.
      if (Pick != S.Cursor) {
        S.Cursor = Pick;
        S.ServedInBurst = 0;
      }
      Job J = std::move(S.Queues[Pick].front());
      S.Queues[Pick].pop_front();
      --S.Pending;
      int Weight = std::max(1, Tenants[Pick]->Cfg.Weight);
      if (++S.ServedInBurst >= static_cast<size_t>(Weight)) {
        S.Cursor = (Pick + 1) % NumTenants;
        S.ServedInBurst = 0;
      }
      Lock.unlock();
      if (!shedIfExpired(J, S))
        processJob(J);
      Lock.lock();
    }
  }

  /// Dequeue-time load shedding: a deadline-carrying op whose budget has
  /// expired in the queue — or whose remainder is smaller than the shard's
  /// observed backend service time — cannot succeed, so it is answered
  /// typed right now instead of burning a doomed backend call. True =
  /// shed (reply sent, admission refunded). EndSession is exempt:
  /// teardown must run regardless of budget or the session would leak.
  bool shedIfExpired(Job &J, ShardState &S) {
    if (!J.HasDeadline || J.Env.Kind == RequestKind::EndSession)
      return false;
    int64_t RemainingUs =
        std::chrono::duration_cast<std::chrono::microseconds>(
            J.Deadline - std::chrono::steady_clock::now())
            .count();
    int64_t Ewma = S.EwmaUs.load(std::memory_order_relaxed);
    bool Expired = RemainingUs <= 0;
    if (!Expired && (Ewma == 0 || RemainingUs >= Ewma))
      return false;
    telemetry::SpanScope Span("gateway.shed", "gateway");
    shedExpiredTotal().inc();
    if (J.HoldsAdmission)
      releaseAdmission(J.Tenant);
    if (Expired) {
      deadlineExceededGatewayTotal().inc();
      J.Reply(errorReply(
          deadlineExceeded("deadline expired in gateway dispatch queue"),
          0));
    } else {
      J.Reply(errorReply(
          unavailable("remaining deadline budget (" +
                      std::to_string(RemainingUs / 1000) +
                      "ms) below shard " + std::to_string(S.Index) +
                      " service time"),
          Opts.QueueRetryAfterMs));
    }
    return true;
  }

  /// Re-stamps the outgoing envelope's DeadlineMs from the job's remaining
  /// budget so the backend sees its *current* budget, not the stale intake
  /// value. False = the budget is gone: a typed DeadlineExceeded reply was
  /// sent and any admission reservation refunded.
  bool restampDeadline(Job &J) {
    if (!J.HasDeadline)
      return true;
    int64_t RemainingMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            J.Deadline - std::chrono::steady_clock::now())
            .count();
    if (RemainingMs <= 0) {
      deadlineExceededGatewayTotal().inc();
      if (J.HoldsAdmission)
        releaseAdmission(J.Tenant);
      J.Reply(errorReply(
          deadlineExceeded("deadline expired before backend dispatch"), 0));
      return false;
    }
    J.Env.DeadlineMs = static_cast<uint32_t>(RemainingMs);
    return true;
  }

  /// One backend round trip: encode, send to \p Shard, decode. A non-zero
  /// envelope deadline caps the transport timeout to the remaining budget;
  /// the observed round-trip time feeds the shard's shedding EWMA.
  StatusOr<ReplyEnvelope> backendCall(size_t Shard,
                                      const RequestEnvelope &Env,
                                      std::string *RawOut = nullptr) {
    // Chaos hook for the gateway→backend link (the in-process stand-in
    // for a lost or flaky shard connection).
    fault::FaultAction F = CG_FAULT_POINT("gateway.backend_call", nullptr);
    if (F.isError())
      return F.Error;
    if (F.isCrash())
      return unavailable("injected backend link failure");
    int TimeoutMs = Opts.BackendTimeoutMs;
    if (Env.DeadlineMs > 0)
      TimeoutMs = std::min<int64_t>(TimeoutMs, Env.DeadlineMs);
    std::string Bytes = service::encodeRequest(Env);
    auto CallStart = std::chrono::steady_clock::now();
    CG_ASSIGN_OR_RETURN(
        std::string Raw,
        Broker.shardTransport(Shard)->roundTrip(Bytes, TimeoutMs));
    int64_t TookUs = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - CallStart)
                         .count();
    {
      ShardState &S = shardQueue(Shard);
      int64_t Old = S.EwmaUs.load(std::memory_order_relaxed);
      S.EwmaUs.store(Old == 0 ? TookUs : (3 * Old + TookUs) / 4,
                     std::memory_order_relaxed);
    }
    F.corruptReply(Raw);
    StatusOr<ReplyEnvelope> Reply = service::decodeReply(Raw);
    // The shard link carries no checksum: an undecodable reply is a link
    // fault the client recovers from, not a malformed client request.
    if (!Reply.isOk())
      return unavailable("garbled backend reply: " +
                         Reply.status().message());
    if (RawOut)
      *RawOut = std::move(Raw);
    return Reply;
  }

  void processJob(Job &J) {
    J.Tenant->DispatchedCtr->inc();
    switch (J.Env.Kind) {
    case RequestKind::StartSession:
      processStart(J);
      return;
    case RequestKind::Step:
      processStep(J);
      return;
    case RequestKind::Fork:
      processFork(J);
      return;
    case RequestKind::EndSession:
      processEnd(J);
      return;
    case RequestKind::Heartbeat:
      return; // Never queued.
    }
  }

  void processStart(Job &J) {
    if (!restampDeadline(J))
      return;
    size_t Shard = reserveShard();
    if (Shard == SIZE_MAX) {
      releaseAdmission(J.Tenant);
      J.Reply(errorReply(unavailable("no shard accepting sessions"),
                         Opts.AdmissionRetryAfterMs));
      return;
    }
    StatusOr<ReplyEnvelope> Reply = backendCall(Shard, J.Env);
    if (!Reply.isOk() || Reply->Code != StatusCode::Ok) {
      unreserveShard(Shard);
      releaseAdmission(J.Tenant);
      if (!Reply.isOk())
        J.Reply(errorReply(Reply.status(), 0));
      else
        J.Reply(service::encodeReply(*Reply));
      return;
    }
    auto Entry = registerSession(J.Tenant, Shard, Reply->Start.SessionId,
                                 J.Env.Start,
                                 /*LastStateKey=*/J.Env.Start.RestoreStateKey &&
                                         Reply->Start.Restored
                                     ? J.Env.Start.RestoreStateKey
                                     : 0);
    Reply->Start.SessionId = Entry->GwId;
    J.Reply(service::encodeReply(*Reply));
  }

  /// Re-establishes \p Entry's backend session at its recorded state via
  /// snapshot restore. Caller holds Entry->M. False = the state is
  /// unreachable (snapshot gone) and the caller must drop the session.
  bool tryRestore(SessionEntry &Entry) {
    RequestEnvelope R;
    R.Kind = RequestKind::StartSession;
    R.Start = Entry.Start;
    R.Start.RestoreStateKey = Entry.LastStateKey;
    size_t Shard = Entry.Shard.load(std::memory_order_relaxed);
    StatusOr<ReplyEnvelope> Reply = backendCall(Shard, R);
    if (!Reply.isOk() || Reply->Code != StatusCode::Ok)
      return false;
    // A fresh (unrestored) session only matches when the episode never
    // stepped — its initial state *is* the recorded state.
    if (Reply->Start.Restored || Entry.LastStateKey == 0) {
      Entry.BackendId = Reply->Start.SessionId;
      restoresTotal().inc();
      CG_LOG_INFO_FOR("gateway", Entry.GwId)
          << "restored backend session at state " << Entry.LastStateKey;
      return true;
    }
    // Wrong state: give the orphan back before reporting failure.
    RequestEnvelope End;
    End.Kind = RequestKind::EndSession;
    End.End.SessionId = Reply->Start.SessionId;
    (void)backendCall(Shard, End);
    return false;
  }

  void processStep(Job &J) {
    SessionEntry &Entry = *J.Entry;
    std::lock_guard<std::mutex> OpLock(Entry.M);
    if (Entry.Dead) {
      J.Reply(errorReply(
          notFound("no session " + std::to_string(Entry.GwId)), 0));
      return;
    }
    for (int Round = 0; Round < 2; ++Round) {
      // Budget may have shrunk waiting on the op lock or across the
      // restore round; the backend must see what actually remains.
      if (!restampDeadline(J))
        return;
      J.Env.Step.SessionId = Entry.BackendId;
      std::string Raw;
      StatusOr<ReplyEnvelope> Reply =
          backendCall(Entry.Shard.load(std::memory_order_relaxed), J.Env,
                      &Raw);
      if (!Reply.isOk()) {
        J.Reply(errorReply(Reply.status(), 0));
        return;
      }
      if (isBackendSessionLoss(*Reply) && Round == 0) {
        // The shard restarted under us (crash + broker monitor). Try a
        // transparent snapshot restore and re-issue the op once.
        if (tryRestore(Entry))
          continue;
        dropSession(Entry);
        J.Reply(errorReply(
            notFound("no session " + std::to_string(Entry.GwId)), 0));
        return;
      }
      if (Reply->Code == StatusCode::Ok && Reply->Step.SessionStateKey)
        Entry.LastStateKey = Reply->Step.SessionStateKey;
      // Step replies carry no session ids: forward the backend's bytes
      // untouched so payloads (deltas included) are exactly what it
      // produced.
      J.Reply(std::move(Raw));
      return;
    }
  }

  void processFork(Job &J) {
    SessionEntry &Entry = *J.Entry;
    std::lock_guard<std::mutex> OpLock(Entry.M);
    if (Entry.Dead) {
      releaseAdmission(J.Tenant);
      J.Reply(errorReply(
          notFound("no session " + std::to_string(Entry.GwId)), 0));
      return;
    }
    for (int Round = 0; Round < 2; ++Round) {
      if (!restampDeadline(J))
        return;
      J.Env.Fork.SessionId = Entry.BackendId;
      size_t Shard = Entry.Shard.load(std::memory_order_relaxed);
      StatusOr<ReplyEnvelope> Reply = backendCall(Shard, J.Env);
      if (!Reply.isOk() || Reply->Code != StatusCode::Ok) {
        if (Reply.isOk() && isBackendSessionLoss(*Reply) && Round == 0 &&
            tryRestore(Entry))
          continue;
        releaseAdmission(J.Tenant);
        if (!Reply.isOk())
          J.Reply(errorReply(Reply.status(), 0));
        else
          J.Reply(service::encodeReply(*Reply));
        return;
      }
      // The clone lives on the parent's shard (fork is an intra-service
      // O(1) snapshot share).
      {
        std::lock_guard<std::mutex> Lock(SessionsM);
        ++ShardSessions[Shard];
      }
      auto Clone = registerSession(J.Tenant, Shard, Reply->Fork.SessionId,
                                   Entry.Start, Entry.LastStateKey);
      Reply->Fork.SessionId = Clone->GwId;
      J.Reply(service::encodeReply(*Reply));
      return;
    }
  }

  void processEnd(Job &J) {
    SessionEntry &Entry = *J.Entry;
    std::lock_guard<std::mutex> OpLock(Entry.M);
    if (Entry.Dead) {
      J.Reply(service::encodeReply(ReplyEnvelope{}));
      return;
    }
    J.Env.End.SessionId = Entry.BackendId;
    // Teardown is never deadline-rejected (the session would leak on the
    // backend); strip any client budget.
    J.Env.DeadlineMs = 0;
    std::string Raw;
    StatusOr<ReplyEnvelope> Reply = backendCall(
        Entry.Shard.load(std::memory_order_relaxed), J.Env, &Raw);
    dropSession(Entry);
    if (!Reply.isOk()) {
      // The backend will reap the session on its next restart; the
      // client's teardown still succeeds.
      J.Reply(service::encodeReply(ReplyEnvelope{}));
      return;
    }
    J.Reply(std::move(Raw));
  }

  // -- Drain / scale ---------------------------------------------------------

  size_t drainShard(size_t Index) {
    std::vector<std::shared_ptr<SessionEntry>> OnShard;
    {
      std::lock_guard<std::mutex> Lock(SessionsM);
      if (Index >= ShardDraining.size())
        return 0;
      ShardDraining[Index] = true;
      for (auto &[Id, Entry] : Sessions)
        if (Entry->Shard.load(std::memory_order_relaxed) == Index)
          OnShard.push_back(Entry);
    }
    size_t Moved = 0;
    for (auto &EntryPtr : OnShard) {
      SessionEntry &Entry = *EntryPtr;
      std::lock_guard<std::mutex> OpLock(Entry.M);
      if (Entry.Dead ||
          Entry.Shard.load(std::memory_order_relaxed) != Index)
        continue;
      size_t Target = reserveShard();
      if (Target == SIZE_MAX) {
        // Nowhere to go: the session stays; the shard keeps serving it.
        continue;
      }
      RequestEnvelope R;
      R.Kind = RequestKind::StartSession;
      R.Start = Entry.Start;
      R.Start.RestoreStateKey = Entry.LastStateKey;
      StatusOr<ReplyEnvelope> Reply = backendCall(Target, R);
      bool Landed = Reply.isOk() && Reply->Code == StatusCode::Ok &&
                    (Reply->Start.Restored || Entry.LastStateKey == 0);
      if (!Landed) {
        if (Reply.isOk() && Reply->Code == StatusCode::Ok) {
          RequestEnvelope End;
          End.Kind = RequestKind::EndSession;
          End.End.SessionId = Reply->Start.SessionId;
          (void)backendCall(Target, End);
        }
        unreserveShard(Target);
        // Snapshot is gone: the client must replay. Drop the entry so its
        // next op reports session loss.
        dropSession(Entry);
        continue;
      }
      // Retire the old backend session (best-effort; a crashed shard
      // already lost it).
      RequestEnvelope End;
      End.Kind = RequestKind::EndSession;
      End.End.SessionId = Entry.BackendId;
      (void)backendCall(Index, End);
      {
        std::lock_guard<std::mutex> Lock(SessionsM);
        --ShardSessions[Index];
      }
      Entry.Shard.store(Target, std::memory_order_relaxed);
      Entry.BackendId = Reply->Start.SessionId;
      ++Moved;
      migrationsTotal().inc();
      CG_LOG_INFO_FOR("gateway", Entry.GwId)
          << "migrated session from shard " << Index << " to " << Target;
    }
    return Moved;
  }

  void undrainShard(size_t Index) {
    std::lock_guard<std::mutex> Lock(SessionsM);
    if (Index < ShardDraining.size())
      ShardDraining[Index] = false;
  }

  size_t addShard() {
    size_t Index = Broker.addShard();
    startDispatcher(Index);
    std::lock_guard<std::mutex> Lock(SessionsM);
    ShardSessions.push_back(0);
    ShardDraining.push_back(false);
    return Index;
  }

  void setPaused(bool Paused) {
    std::lock_guard<std::mutex> Lock(ShardsM);
    for (auto &S : Queues) {
      {
        std::lock_guard<std::mutex> QLock(S->M);
        S->Paused = Paused;
      }
      S->Work.notify_all();
    }
  }
};

// -- Public surface -----------------------------------------------------------

Gateway::Gateway(std::unique_ptr<Impl> I) : I(std::move(I)) {}

Gateway::~Gateway() { I->stop(); }

StatusOr<std::unique_ptr<Gateway>> Gateway::serve(GatewayOptions Opts) {
  auto I = std::make_unique<Impl>(std::move(Opts));
  CG_RETURN_IF_ERROR(I->start());
  return std::unique_ptr<Gateway>(new Gateway(std::move(I)));
}

const net::NetAddress &Gateway::boundAddress() const {
  return I->Server->boundAddress();
}

size_t Gateway::numShards() const { return I->Broker.numShards(); }

size_t Gateway::sessionCount() const {
  std::lock_guard<std::mutex> Lock(I->SessionsM);
  return I->Sessions.size();
}

runtime::ServiceBroker &Gateway::broker() { return I->Broker; }

size_t Gateway::addShard() { return I->addShard(); }

size_t Gateway::drainShard(size_t Index) { return I->drainShard(Index); }

void Gateway::undrainShard(size_t Index) { I->undrainShard(Index); }

size_t Gateway::queuedTotal() const {
  std::lock_guard<std::mutex> Lock(I->ShardsM);
  size_t Total = 0;
  for (auto &Q : I->Queues) {
    std::lock_guard<std::mutex> QLock(Q->M);
    Total += Q->Pending;
  }
  return Total;
}

void Gateway::pauseDispatch() { I->setPaused(true); }

void Gateway::resumeDispatch() { I->setPaused(false); }
