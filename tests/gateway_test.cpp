//===- tests/gateway_test.cpp - Multi-tenant gateway -----------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The service gateway end to end: tenant auth, admission control, rate
// limiting, queue backpressure, weighted-fair dispatch, transparent
// snapshot restore on shard loss, drain/scale-out — and the acceptance
// criterion that a remote episode over a loopback socket is byte-identical
// to an in-process one.

#include "core/Registry.h"
#include "datasets/DatasetRegistry.h"
#include "envs/llvm/LlvmSession.h"
#include "fault/FaultRegistry.h"
#include "gateway/Gateway.h"
#include "ir/Snapshot.h"
#include "net/SocketTransport.h"
#include "service/Serialization.h"
#include "service/ServiceClient.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string_view>
#include <thread>
#include <unistd.h>

using namespace compiler_gym;
using namespace compiler_gym::gateway;
using namespace compiler_gym::net;
using namespace compiler_gym::service;

namespace {

constexpr const char *Crc32 = "benchmark://cbench-v1/crc32";

NetAddress uniqueListenAddress(const char *Tag) {
  static std::atomic<int> Counter{0};
  NetAddress Addr;
  Addr.Kind = NetAddress::Family::Unix;
  Addr.Path = "/tmp/cg_gw_test_" + std::to_string(::getpid()) + "_" + Tag +
              "_" + std::to_string(Counter.fetch_add(1)) + ".sock";
  return Addr;
}

/// Process-wide series; tests diff them across a window that runs one
/// gateway or env.
telemetry::Counter &series(const std::string &Name,
                           const telemetry::Labels &L = {}) {
  return telemetry::MetricsRegistry::global().counter(Name, L);
}

telemetry::Counter &dispatched(const std::string &Tenant) {
  return series("cg_gateway_dispatched_total", {{"tenant", Tenant}});
}

std::unique_ptr<Gateway> serveGateway(GatewayOptions Opts, const char *Tag) {
  envs::registerLlvmEnvironment();
  Opts.Listen = uniqueListenAddress(Tag);
  auto Gw = Gateway::serve(std::move(Opts));
  EXPECT_TRUE(Gw.isOk()) << Gw.status().toString();
  return Gw.takeValue();
}

/// A dialed typed client for \p Gw authenticating as \p Token.
std::unique_ptr<ServiceClient> dialClient(Gateway &Gw,
                                          const std::string &Token,
                                          ClientOptions Opts = {}) {
  Opts.AuthToken = Token;
  return std::make_unique<ServiceClient>(
      nullptr, std::make_shared<SocketTransport>(Gw.boundAddress()), Opts);
}

/// A remote CompilerEnv connected through \p Gw.
StatusOr<std::unique_ptr<core::CompilerEnv>>
connectEnv(Gateway &Gw, const std::string &Token,
           const std::string &RewardSpace = "IrInstructionCount") {
  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = RewardSpace;
  auto Opts = core::resolveMakeOptions("llvm-v0", MO);
  if (!Opts.isOk())
    return Opts.status();
  Opts->Client.AuthToken = Token;
  return core::CompilerEnv::connect(
      *Opts, std::make_shared<SocketTransport>(Gw.boundAddress()));
}

/// Raw framed RPC, bypassing ServiceClient's retry machinery — the only
/// way to observe flow-control rejections (ServiceClient transparently
/// retries typed backpressure).
StatusOr<ReplyEnvelope> rawCall(Transport &T, RequestEnvelope Req,
                                int TimeoutMs = 10000) {
  CG_ASSIGN_OR_RETURN(std::string Raw,
                      T.roundTrip(encodeRequest(Req), TimeoutMs));
  return decodeReply(Raw);
}

RequestEnvelope rawStart(const std::string &Token) {
  RequestEnvelope Req;
  Req.Kind = RequestKind::StartSession;
  Req.AuthToken = Token;
  Req.Start.CompilerName = "llvm";
  auto B = datasets::DatasetRegistry::instance().resolve(Crc32);
  EXPECT_TRUE(B.isOk());
  Req.Start.Bench = *B;
  return Req;
}

RequestEnvelope rawStep(const std::string &Token, uint64_t SessionId,
                        int Action = 0) {
  RequestEnvelope Req;
  Req.Kind = RequestKind::Step;
  Req.AuthToken = Token;
  Req.Step.SessionId = SessionId;
  service::Action A;
  A.Index = Action;
  Req.Step.Actions = {A};
  return Req;
}

/// Restores the global tracer to its default state on scope exit.
struct TracerReset {
  TracerReset() { reset(); }
  ~TracerReset() { reset(); }
  static void reset() {
    telemetry::Tracer &T = telemetry::Tracer::global();
    T.setEnabled(false);
    T.setSampleEveryN(1);
    T.clear();
  }
};

// -- Auth / admission ---------------------------------------------------------

TEST(Gateway, RejectsUnknownTenantToken) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  Opts.Tenants = {{"alice", "alice-token"}};
  auto Gw = serveGateway(std::move(Opts), "auth");
  auto Good = dialClient(*Gw, "alice-token");
  EXPECT_TRUE(Good->heartbeat().isOk());
  auto Bad = dialClient(*Gw, "wrong-token");
  Status S = Bad->heartbeat();
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::FailedPrecondition);
  EXPECT_NE(S.message().find("unknown tenant token"), std::string::npos);
}

TEST(Gateway, EmptyTenantTableAdmitsDefaultToken) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  auto Gw = serveGateway(std::move(Opts), "anon");
  auto Client = dialClient(*Gw, "");
  EXPECT_TRUE(Client->heartbeat().isOk());
}

TEST(Gateway, EnforcesPerTenantSessionLimit) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  TenantConfig T{"small", "tok"};
  T.MaxSessions = 1;
  Opts.Tenants = {T};
  auto Gw = serveGateway(std::move(Opts), "admission");

  SocketTransport Raw(Gw->boundAddress());
  auto First = rawCall(Raw, rawStart("tok"));
  ASSERT_TRUE(First.isOk()) << First.status().toString();
  ASSERT_EQ(First->Code, StatusCode::Ok);
  EXPECT_EQ(Gw->sessionCount(), 1u);

  auto Second = rawCall(Raw, rawStart("tok"));
  ASSERT_TRUE(Second.isOk());
  EXPECT_EQ(Second->Code, StatusCode::Unavailable);
  EXPECT_GT(Second->RetryAfterMs, 0u); // Typed backpressure, not a drop.
  EXPECT_NE(Second->ErrorMessage.find("session limit"), std::string::npos);

  // Ending the first session frees the slot.
  RequestEnvelope End;
  End.Kind = RequestKind::EndSession;
  End.AuthToken = "tok";
  End.End.SessionId = First->Start.SessionId;
  ASSERT_TRUE(rawCall(Raw, End).isOk());
  auto Third = rawCall(Raw, rawStart("tok"));
  ASSERT_TRUE(Third.isOk());
  EXPECT_EQ(Third->Code, StatusCode::Ok);
}

TEST(Gateway, RateLimitsStepsWithRetryHint) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  TenantConfig T{"metered", "tok"};
  T.StepsPerSec = 5.0;
  T.Burst = 2.0;
  Opts.Tenants = {T};
  auto Gw = serveGateway(std::move(Opts), "rate");

  SocketTransport Raw(Gw->boundAddress());
  auto Start = rawCall(Raw, rawStart("tok"));
  ASSERT_TRUE(Start.isOk());
  ASSERT_EQ(Start->Code, StatusCode::Ok);
  uint64_t Session = Start->Start.SessionId;

  // Fire steps far faster than 5/s: the burst drains, then rejections
  // must carry a computed retry-after.
  int Rejected = 0;
  uint32_t LastHint = 0;
  for (int I = 0; I < 6; ++I) {
    auto R = rawCall(Raw, rawStep("tok", Session));
    ASSERT_TRUE(R.isOk()) << R.status().toString();
    if (R->Code == StatusCode::Unavailable) {
      ++Rejected;
      LastHint = R->RetryAfterMs;
      EXPECT_NE(R->ErrorMessage.find("rate limit"), std::string::npos);
    } else {
      ASSERT_EQ(R->Code, StatusCode::Ok);
    }
  }
  EXPECT_GE(Rejected, 3);
  EXPECT_GT(LastHint, 0u);
}

// -- Queueing / fairness ------------------------------------------------------

TEST(Gateway, FullQueueRepliesWithBackpressureNotSilence) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  Opts.MaxQueuePerShard = 2;
  Opts.QueueRetryAfterMs = 7;
  auto Gw = serveGateway(std::move(Opts), "queue");

  SocketTransport Raw(Gw->boundAddress());
  auto Start = rawCall(Raw, rawStart(""));
  ASSERT_TRUE(Start.isOk());
  ASSERT_EQ(Start->Code, StatusCode::Ok);
  uint64_t Session = Start->Start.SessionId;

  // Freeze dispatch so queued ops stay queued, then oversubscribe the
  // 2-slot queue with 4 concurrent steps on 4 connections.
  Gw->pauseDispatch();
  constexpr int N = 4;
  std::atomic<int> Ok{0}, QueueFull{0}, Other{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&Gw, Session, &Ok, &QueueFull, &Other] {
      SocketTransport Mine(Gw->boundAddress());
      auto R = rawCall(Mine, rawStep("", Session), /*TimeoutMs=*/15000);
      if (!R.isOk()) {
        ++Other;
        return;
      }
      if (R->Code == StatusCode::Ok)
        ++Ok;
      else if (R->Code == StatusCode::Unavailable &&
               R->ErrorMessage.find("queue is full") != std::string::npos) {
        EXPECT_EQ(R->RetryAfterMs, 7u);
        ++QueueFull;
      } else
        ++Other;
    });
  // Wait until the overflow rejections have come back (they return while
  // dispatch is still frozen), then release the queued ops.
  for (int I = 0; I < 500 && QueueFull.load() < N - 2; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Gw->resumeDispatch();
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Ok.load(), 2);
  EXPECT_EQ(QueueFull.load(), 2);
  EXPECT_EQ(Other.load(), 0);
}

TEST(Gateway, WeightedRoundRobinKeepsStarvedTenantMoving) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  Opts.Tenants = {{"bulk", "bulk-tok"}, {"light", "light-tok"}};
  telemetry::Counter &Bulk = dispatched("bulk");
  telemetry::Counter &Light = dispatched("light");
  const uint64_t Bulk0 = Bulk.value();
  const uint64_t Light0 = Light.value();
  auto Gw = serveGateway(std::move(Opts), "fair");

  SocketTransport BulkRaw(Gw->boundAddress());
  SocketTransport LightRaw(Gw->boundAddress());
  auto BulkStart = rawCall(BulkRaw, rawStart("bulk-tok"));
  auto LightStart = rawCall(LightRaw, rawStart("light-tok"));
  ASSERT_TRUE(BulkStart.isOk());
  ASSERT_TRUE(LightStart.isOk());
  ASSERT_EQ(BulkStart->Code, StatusCode::Ok);
  ASSERT_EQ(LightStart->Code, StatusCode::Ok);

  // Load the queue with 8 bulk steps and 2 light steps while dispatch is
  // frozen, so the dispatcher sees both backlogs at once.
  Gw->pauseDispatch();
  // A deep bulk backlog keeps the dispatcher busy for tens of milliseconds
  // after the light tenant finishes, so the dispatched-count snapshot below
  // is robust to scheduling delay on the capturing thread.
  constexpr int BulkOps = 24, LightOps = 2;
  std::atomic<int> LightDone{0};
  std::atomic<uint64_t> BulkDispatchedWhenLightFinished{UINT64_MAX};
  std::vector<std::thread> Threads;
  for (int I = 0; I < BulkOps; ++I)
    Threads.emplace_back([&Gw, &BulkStart] {
      SocketTransport Mine(Gw->boundAddress());
      auto R = rawCall(Mine, rawStep("bulk-tok", BulkStart->Start.SessionId));
      EXPECT_TRUE(R.isOk() && R->Code == StatusCode::Ok);
    });
  for (int I = 0; I < LightOps; ++I)
    Threads.emplace_back([&Gw, &LightStart, &LightDone, &Bulk, Bulk0,
                          &BulkDispatchedWhenLightFinished] {
      SocketTransport Mine(Gw->boundAddress());
      auto R =
          rawCall(Mine, rawStep("light-tok", LightStart->Start.SessionId));
      EXPECT_TRUE(R.isOk() && R->Code == StatusCode::Ok);
      if (LightDone.fetch_add(1) + 1 == LightOps)
        BulkDispatchedWhenLightFinished.store(Bulk.value() - Bulk0);
    });
  // Every request must be sitting in its queue before dispatch resumes,
  // or the race (not the scheduler) decides the interleaving.
  for (int Spin = 0; Gw->queuedTotal() < BulkOps + LightOps && Spin < 2000;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Gw->queuedTotal(), static_cast<size_t>(BulkOps + LightOps));
  Gw->resumeDispatch();
  for (auto &T : Threads)
    T.join();

  // Round-robin interleaves the two backlogs, so the light tenant's last
  // op completed while most of the bulk backlog was still queued. (Counts
  // include each tenant's StartSession dispatch.)
  uint64_t BulkAtLightDone = BulkDispatchedWhenLightFinished.load();
  ASSERT_NE(BulkAtLightDone, UINT64_MAX);
  EXPECT_LT(BulkAtLightDone, 1u + BulkOps);
  EXPECT_EQ(Bulk.value() - Bulk0, 1u + BulkOps);
  EXPECT_EQ(Light.value() - Light0, 1u + LightOps);
}

// -- End-to-end episodes ------------------------------------------------------

TEST(Gateway, RemoteEpisodeIsIdenticalToInProcess) {
  // Repeats on purpose: a re-applied pass often changes nothing, which is
  // exactly what the delta handshake compresses.
  const std::vector<int> Actions = {0, 1, 1, 2, 0, 0, 3, 2, 1, 0};
  telemetry::Counter &Deltas = series("cg_env_delta_replies_total");

  // Control: a plain in-process env, run first in its own delta window.
  uint64_t Before = Deltas.value();
  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Control = core::make("llvm-v0", MO);
  ASSERT_TRUE(Control.isOk()) << Control.status().toString();
  auto CtlObs = (*Control)->reset();
  ASSERT_TRUE(CtlObs.isOk());
  std::vector<core::StepResult> CtlSteps;
  for (int A : Actions) {
    auto Ctl = (*Control)->step(A);
    ASSERT_TRUE(Ctl.isOk()) << Ctl.status().toString();
    CtlSteps.push_back(std::move(*Ctl));
  }
  const uint64_t ControlDeltas = Deltas.value() - Before;

  GatewayOptions Opts;
  Opts.NumShards = 2;
  Opts.Tenants = {{"t", "tok"}};
  auto Gw = serveGateway(std::move(Opts), "e2e");
  Before = Deltas.value();
  auto Remote = connectEnv(*Gw, "tok");
  ASSERT_TRUE(Remote.isOk()) << Remote.status().toString();
  auto RemObs = (*Remote)->reset();
  ASSERT_TRUE(RemObs.isOk()) << RemObs.status().toString();
  EXPECT_EQ(CtlObs->Ints, RemObs->Ints);
  for (size_t I = 0; I < Actions.size(); ++I) {
    auto Rem = (*Remote)->step(Actions[I]);
    ASSERT_TRUE(Rem.isOk()) << Rem.status().toString();
    EXPECT_EQ(CtlSteps[I].Obs.Ints, Rem->Obs.Ints) << "action " << Actions[I];
    EXPECT_DOUBLE_EQ(CtlSteps[I].Reward, Rem->Reward)
        << "action " << Actions[I];
  }
  const uint64_t RemoteDeltas = Deltas.value() - Before;
  EXPECT_DOUBLE_EQ((*Control)->episodeReward(), (*Remote)->episodeReward());
  // The wire-delta handshake worked through the gateway's byte-for-byte
  // reply forwarding.
  EXPECT_GT(RemoteDeltas, 0u);
  EXPECT_EQ(ControlDeltas, RemoteDeltas);
}

TEST(Gateway, RemoteTraceStitchesThroughGateway) {
  TracerReset Guard;
  GatewayOptions Opts;
  Opts.NumShards = 1;
  auto Gw = serveGateway(std::move(Opts), "trace");
  auto Env = connectEnv(*Gw, "");
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());

  telemetry::Tracer::global().setEnabled(true);
  uint64_t RootTrace = 0;
  {
    telemetry::SpanScope Root("episode", "test");
    ASSERT_TRUE(Root.active());
    RootTrace = Root.traceId();
    ASSERT_TRUE((*Env)->step(0).isOk());
  }
  // Client, gateway and shards share this process, so one snapshot holds
  // both halves of the stitched trace: the client's rpc span and the
  // backend's service span, on the same trace id, correlated through the
  // envelope ids the gateway preserved.
  auto Spans = telemetry::Tracer::global().snapshotSpans();
  bool SawClientRpc = false, SawServiceStep = false;
  for (const auto &S : Spans) {
    if (S.TraceId != RootTrace)
      continue;
    // S.Cat is a const char* — compare contents, not literal addresses.
    if (S.Name == "rpc:step" && std::string_view(S.Cat) == "client")
      SawClientRpc = true;
    if (S.Name == "service:step" && std::string_view(S.Cat) == "service")
      SawServiceStep = true;
  }
  EXPECT_TRUE(SawClientRpc);
  EXPECT_TRUE(SawServiceStep);
}

// -- Shard loss, drain, scale-out ---------------------------------------------

TEST(Gateway, TransparentlyRestoresSessionAfterShardRestart) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  telemetry::Counter &Restored = series("cg_gateway_restores_total");
  telemetry::Counter &Recovered = series("cg_env_recoveries_total");
  const uint64_t RestoresBefore = Restored.value();
  const uint64_t RecoveriesBefore = Recovered.value();
  auto Gw = serveGateway(std::move(Opts), "restore");
  auto Env = connectEnv(*Gw, "");
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  ASSERT_TRUE((*Env)->step(0).isOk());
  ASSERT_TRUE((*Env)->step(1).isOk());

  // Kill every backend session (the shard restarts in place, as after a
  // crash + monitor sweep). The gateway must restore from the snapshot
  // store without the client noticing.
  Gw->broker().shardService(0)->restart();
  auto R = (*Env)->step(2);
  ASSERT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_GE(Restored.value() - RestoresBefore, 1u);
  EXPECT_EQ(Recovered.value(), RecoveriesBefore); // Invisible to the client.

  // The restored trajectory matches an uninterrupted control episode.
  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Control = core::make("llvm-v0", MO);
  ASSERT_TRUE(Control.isOk());
  ASSERT_TRUE((*Control)->reset().isOk());
  for (int A : {0, 1, 2})
    ASSERT_TRUE((*Control)->step(A).isOk());
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), (*Control)->episodeReward());
}

TEST(Gateway, RestartWithEvictedSnapshotReplaysWithoutOrphans) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  telemetry::Counter &Replayed = series("cg_env_replayed_actions_total");
  auto Gw = serveGateway(std::move(Opts), "restore-evicted");
  auto Env = connectEnv(*Gw, "");
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  ASSERT_TRUE((*Env)->step(0).isOk());
  ASSERT_TRUE((*Env)->step(1).isOk());

  // The shard loses its sessions and no snapshot of the state is left:
  // the gateway's restore comes up at the wrong state, so it must end that
  // session, and the client replays its episode into a new one.
  Gw->broker().shardService(0)->restart();
  ir::SnapshotStore::global().clear();
  const uint64_t ReplayedBefore = Replayed.value();
  auto R = (*Env)->step(2);
  ASSERT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_EQ(Replayed.value() - ReplayedBefore, 2u);
  EXPECT_EQ(Gw->broker().shardService(0)->numSessions(), 1u);

  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Control = core::make("llvm-v0", MO);
  ASSERT_TRUE(Control.isOk());
  ASSERT_TRUE((*Control)->reset().isOk());
  for (int A : {0, 1, 2})
    ASSERT_TRUE((*Control)->step(A).isOk());
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), (*Control)->episodeReward());
}

TEST(Gateway, SurvivesCrashyShardsMidEpisode) {
  // The control episode runs before the process-wide plan is armed; its
  // per-step observations are the reference.
  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Control = core::make("llvm-v0", MO);
  ASSERT_TRUE(Control.isOk());
  ASSERT_TRUE((*Control)->reset().isOk());
  std::vector<std::vector<int64_t>> ControlObs;
  for (int Step = 0; Step < 10; ++Step) {
    auto C = (*Control)->step(Step % 4);
    ASSERT_TRUE(C.isOk());
    ControlObs.push_back(C->Obs.Ints);
  }

  GatewayOptions Opts;
  Opts.NumShards = 1;
  Opts.MonitorIntervalMs = 2; // Restart crashed shards promptly.
  telemetry::Counter &Restarted = series("cg_broker_shard_restarts_total");
  const uint64_t RestartsBefore = Restarted.value();
  auto Gw = serveGateway(std::move(Opts), "crashy");
  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = fault::FaultKind::Crash,
                        .AfterHits = 6,
                        .MaxFires = 1});
  fault::ScopedFaultPlan Armed(Plan);
  auto Env = connectEnv(*Gw, "");
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  for (int Step = 0; Step < 10; ++Step) {
    auto R = (*Env)->step(Step % 4);
    ASSERT_TRUE(R.isOk()) << "step " << Step << ": "
                          << R.status().toString();
    EXPECT_EQ(ControlObs[Step], R->Obs.Ints) << "step " << Step;
  }
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), (*Control)->episodeReward());
  // The episode crossed at least one crash, healed by the gateway's
  // transparent restore and/or the env's own re-establishment.
  EXPECT_GE(Restarted.value() - RestartsBefore, 1u);
}

TEST(Gateway, DrainMigratesLiveSessionMidEpisode) {
  GatewayOptions Opts;
  Opts.NumShards = 2;
  telemetry::Counter &Migrated = series("cg_gateway_migrations_total");
  const uint64_t MigrationsBefore = Migrated.value();
  auto Gw = serveGateway(std::move(Opts), "drain");
  auto Env = connectEnv(*Gw, "");
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  ASSERT_TRUE((*Env)->step(0).isOk());
  ASSERT_TRUE((*Env)->step(1).isOk());

  // The session landed on one of the two shards; drain until it moves.
  size_t Moved = Gw->drainShard(0);
  if (Moved == 0) {
    Gw->undrainShard(0);
    Moved = Gw->drainShard(1);
  }
  EXPECT_EQ(Moved, 1u);
  EXPECT_GE(Migrated.value() - MigrationsBefore, 1u);

  // The episode continues on the new shard, mid-flight, same trajectory.
  for (int A : {2, 3, 0})
    ASSERT_TRUE((*Env)->step(A).isOk());
  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Control = core::make("llvm-v0", MO);
  ASSERT_TRUE(Control.isOk());
  ASSERT_TRUE((*Control)->reset().isOk());
  for (int A : {0, 1, 2, 3, 0})
    ASSERT_TRUE((*Control)->step(A).isOk());
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), (*Control)->episodeReward());
}

TEST(Gateway, DrainWithEvictedSnapshotLeavesNoBackendSession) {
  GatewayOptions Opts;
  Opts.NumShards = 2;
  auto Gw = serveGateway(std::move(Opts), "drain-evicted");
  auto Env = connectEnv(*Gw, "");
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  ASSERT_TRUE((*Env)->step(0).isOk());
  ASSERT_TRUE((*Env)->step(1).isOk());
  const size_t Home = Gw->broker().shardService(0)->numSessions() ? 0 : 1;
  ASSERT_EQ(Gw->broker().shardService(Home)->numSessions(), 1u);

  // Without a snapshot the session cannot move: the drain drops it, and
  // the client replays its episode onto the other shard. The old backend
  // session must not stay behind on the drained shard.
  ir::SnapshotStore::global().clear();
  EXPECT_EQ(Gw->drainShard(Home), 0u);
  for (int A : {2, 3})
    ASSERT_TRUE((*Env)->step(A).isOk());
  EXPECT_EQ(Gw->broker().shardService(Home)->numSessions(), 0u);
  EXPECT_EQ(Gw->broker().shardService(1 - Home)->numSessions(), 1u);

  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Control = core::make("llvm-v0", MO);
  ASSERT_TRUE(Control.isOk());
  ASSERT_TRUE((*Control)->reset().isOk());
  for (int A : {0, 1, 2, 3})
    ASSERT_TRUE((*Control)->step(A).isOk());
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), (*Control)->episodeReward());
}

TEST(Gateway, AddShardGrowsTheFleetLive) {
  GatewayOptions Opts;
  Opts.NumShards = 1;
  auto Gw = serveGateway(std::move(Opts), "scale");
  ASSERT_EQ(Gw->numShards(), 1u);
  auto A = connectEnv(*Gw, "");
  ASSERT_TRUE(A.isOk());
  ASSERT_TRUE((*A)->reset().isOk());

  size_t NewShard = Gw->addShard();
  EXPECT_EQ(NewShard, 1u);
  EXPECT_EQ(Gw->numShards(), 2u);

  // Drain the old shard: the live session moves to the new one, and new
  // sessions land there too.
  EXPECT_EQ(Gw->drainShard(0), 1u);
  auto B = connectEnv(*Gw, "");
  ASSERT_TRUE(B.isOk());
  ASSERT_TRUE((*B)->reset().isOk());
  ASSERT_TRUE((*A)->step(0).isOk());
  ASSERT_TRUE((*B)->step(0).isOk());
  EXPECT_EQ(Gw->sessionCount(), 2u);
}

// -- Concurrency (TSan acceptance) --------------------------------------------

TEST(Gateway, ConcurrentTenantsWithDrainAndScaleOut) {
  GatewayOptions Opts;
  Opts.NumShards = 2;
  Opts.Tenants = {{"a", "a-tok"}, {"b", "b-tok"}, {"c", "c-tok"}};
  auto Gw = serveGateway(std::move(Opts), "load");

  constexpr int EnvsPerTenant = 2, Steps = 6;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (const char *Token : {"a-tok", "b-tok", "c-tok"})
    for (int E = 0; E < EnvsPerTenant; ++E)
      Threads.emplace_back([&Gw, Token, &Failures] {
        auto Env = connectEnv(*Gw, Token, /*RewardSpace=*/"none");
        if (!Env.isOk() || !(*Env)->reset().isOk()) {
          ++Failures;
          return;
        }
        for (int I = 0; I < Steps; ++I)
          if (!(*Env)->step(I % 5).isOk()) {
            ++Failures;
            return;
          }
      });
  // Reshape the fleet while the episodes run.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Gw->addShard();
  Gw->drainShard(0);
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GE(Gw->numShards(), 3u);
}

} // namespace
