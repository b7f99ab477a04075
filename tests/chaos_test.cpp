//===- tests/chaos_test.cpp - Deterministic chaos harness ------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The seeded chaos soak and its invariants: episodes run under fault plans
// must be byte-equal to the fault-free reference, every injected failure
// must surface typed (no silent drops), deadlines must not overshoot
// beyond a poll interval, wedged shards must be cleared by the broker
// watchdog with sessions resuming from snapshot (zero replay), and fault
// schedules must be draw-stable under unrelated plan edits.

#include "core/CompilerEnv.h"
#include "core/Registry.h"
#include "datasets/DatasetRegistry.h"
#include "envs/llvm/LlvmSession.h"
#include "fault/FaultRegistry.h"
#include "gateway/Gateway.h"
#include "net/SocketTransport.h"
#include "service/CompilerService.h"
#include "service/Serialization.h"
#include "service/ServiceClient.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unistd.h>

using namespace compiler_gym;
using namespace compiler_gym::fault;

namespace {

constexpr const char *Crc32 = "benchmark://cbench-v1/crc32";

/// Clears the global registry on scope exit so a failing test cannot leak
/// an armed plan into its neighbors.
struct RegistryReset {
  ~RegistryReset() { FaultRegistry::global().clear(); }
};

datasets::Benchmark testBenchmark() {
  auto B = datasets::DatasetRegistry::instance().resolve(Crc32);
  EXPECT_TRUE(B.isOk());
  return *B;
}

telemetry::Counter &replayedActionsTotal() {
  return telemetry::MetricsRegistry::global().counter(
      "cg_env_replayed_actions_total", {},
      "Actions replayed into fresh sessions during recovery");
}

telemetry::Counter &corruptFaultsTotal() {
  return telemetry::MetricsRegistry::global().counter(
      "cg_fault_injected_total", {{"kind", "corrupt"}},
      "Faults fired by the chaos registry");
}

/// Process-wide series: each test diffs them across a window that runs one
/// client, env or gateway.
telemetry::Counter &series(const std::string &Name,
                           const telemetry::Labels &L = {}) {
  return telemetry::MetricsRegistry::global().counter(Name, L);
}

/// The fixed soak workload: deterministic action sequence, long enough to
/// cross several fault windows.
const std::vector<int> SoakActions = {0, 3, 1, 4, 2, 0, 3, 1};

struct EpisodeResult {
  std::string StateLine;
  std::string IrHash;
};

/// Drives one full episode on \p Env: reset, the soak workload (every
/// step must come back Ok — injected failures may only surface as *typed*
/// errors that the recovery machinery absorbs), final state + IR hash.
EpisodeResult runEpisode(core::CompilerEnv &Env) {
  EpisodeResult Out;
  auto R = Env.reset();
  EXPECT_TRUE(R.isOk()) << R.status().toString();
  if (!R.isOk())
    return Out;
  for (int A : SoakActions) {
    auto S = Env.step(A);
    EXPECT_TRUE(S.isOk()) << "action " << A << ": " << S.status().toString();
    if (!S.isOk())
      return Out;
  }
  auto Hash = Env.observation()["IrHash"];
  EXPECT_TRUE(Hash.isOk()) << Hash.status().toString();
  if (Hash.isOk())
    Out.IrHash = Hash->raw().Str;
  Out.StateLine = Env.state().serialize();
  return Out;
}

EpisodeResult runLocalEpisode() {
  core::MakeOptions Opts;
  Opts.Benchmark = Crc32;
  Opts.ObservationSpace = "Autophase";
  Opts.RewardSpace = "IrInstructionCount";
  auto Env = core::make("llvm-v0", Opts);
  EXPECT_TRUE(Env.isOk()) << Env.status().toString();
  if (!Env.isOk())
    return {};
  return runEpisode(**Env);
}

net::NetAddress uniqueListenAddress(const char *Tag) {
  static std::atomic<int> Counter{0};
  net::NetAddress Addr;
  Addr.Kind = net::NetAddress::Family::Unix;
  Addr.Path = "/tmp/cg_chaos_test_" + std::to_string(::getpid()) + "_" + Tag +
              "_" + std::to_string(Counter.fetch_add(1)) + ".sock";
  return Addr;
}

std::unique_ptr<gateway::Gateway> serveGateway(gateway::GatewayOptions Opts,
                                               const char *Tag) {
  envs::registerLlvmEnvironment();
  Opts.Listen = uniqueListenAddress(Tag);
  auto Gw = gateway::Gateway::serve(std::move(Opts));
  EXPECT_TRUE(Gw.isOk()) << Gw.status().toString();
  return Gw.takeValue();
}

StatusOr<std::unique_ptr<core::CompilerEnv>>
connectEnv(gateway::Gateway &Gw, const std::string &Token = "") {
  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Opts = core::resolveMakeOptions("llvm-v0", MO);
  if (!Opts.isOk())
    return Opts.status();
  Opts->Client.AuthToken = Token;
  return core::CompilerEnv::connect(
      *Opts, std::make_shared<net::SocketTransport>(Gw.boundAddress()));
}

} // namespace

// -- Registry semantics -------------------------------------------------------

TEST(FaultRegistryTest, HitWindowsAndFireCapsAreHonored) {
  RegistryReset RR;
  FaultRegistry &Reg = FaultRegistry::global();
  FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "unit.w",
                        .Kind = FaultKind::Error,
                        .AfterHits = 2,
                        .MaxFires = 3});
  Reg.install(Plan);
  std::vector<bool> Fired;
  for (int I = 0; I < 10; ++I)
    Fired.push_back(bool(Reg.evaluate("unit.w", nullptr)));
  // P=1.0: eligible hits fire deterministically — hits 3..5 and no more.
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, true, true, false,
                                      false, false, false, false}));
  EXPECT_EQ(Reg.hits("unit.w"), 10u);
  EXPECT_EQ(Reg.fires("unit.w"), 3u);
  EXPECT_EQ(Reg.totalFires(), 3u);
  Reg.clear();
  EXPECT_FALSE(bool(CG_FAULT_POINT("unit.w", nullptr)));
}

TEST(FaultRegistryTest, ErrorRulesCarryTypedStatus) {
  RegistryReset RR;
  FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "unit.e",
                        .Kind = FaultKind::Error,
                        .MaxFires = 1,
                        .Code = StatusCode::Internal,
                        .Message = "wired through"});
  FaultRegistry::global().install(Plan);
  FaultAction A = FaultRegistry::global().evaluate("unit.e", nullptr);
  ASSERT_TRUE(A.isError());
  EXPECT_EQ(A.Error.code(), StatusCode::Internal);
  EXPECT_EQ(A.Error.message(), "wired through");
}

// -- Draw stability (the PR 8 guarantee, generalized) -------------------------

TEST(ChaosDrawStability, UnrelatedRuleTrafficDoesNotShiftSchedules) {
  RegistryReset RR;
  FaultRegistry &Reg = FaultRegistry::global();
  FaultPlanSpec Plan;
  Plan.Seed = 777;
  // Rule 0 is disabled (P=0), rule 2 is always-on (P=1): neither consumes
  // RNG draws, so hammering them must not shift rule 1's schedule.
  Plan.Rules.push_back({.Point = "unit.off", .Probability = 0.0});
  Plan.Rules.push_back({.Point = "unit.x", .Probability = 0.5});
  Plan.Rules.push_back({.Point = "unit.on", .Probability = 1.0});
  Reg.install(Plan);
  std::vector<bool> Base;
  for (int I = 0; I < 200; ++I)
    Base.push_back(bool(Reg.evaluate("unit.x", nullptr)));
  // Same plan, fresh streams — but now interleave heavy traffic on the
  // degenerate-probability rules between every probe.
  Reg.install(Plan);
  std::vector<bool> Interleaved;
  for (int I = 0; I < 200; ++I) {
    for (int J = 0; J < 3; ++J) {
      EXPECT_FALSE(bool(Reg.evaluate("unit.off", nullptr)));
      EXPECT_TRUE(bool(Reg.evaluate("unit.on", nullptr)));
    }
    Interleaved.push_back(bool(Reg.evaluate("unit.x", nullptr)));
  }
  EXPECT_EQ(Base, Interleaved);
  EXPECT_GT(Reg.fires("unit.x"), 0u);
  EXPECT_EQ(Reg.fires("unit.off"), 0u);
}

// -- Client transport fault points --------------------------------------------

TEST(ClientFaultPoints, InjectsTypedFaultsThenPassesThrough) {
  RegistryReset RR;
  FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "transport.round_trip",
                        .Kind = FaultKind::Error,
                        .MaxFires = 1,
                        .Code = StatusCode::Unavailable,
                        .Message = "injected reset"});
  FaultRegistry::global().install(Plan);
  auto Service = std::make_shared<service::CompilerService>();
  service::ClientOptions CO;
  CO.MaxRetries = 0;
  service::ServiceClient Client(Service, CO);
  Status R1 = Client.heartbeat();
  ASSERT_FALSE(R1.isOk());
  EXPECT_EQ(R1.code(), StatusCode::Unavailable);
  // The request never reached the service; the next one passes through.
  EXPECT_EQ(Service->opsHandled(), 0u);
  Status R2 = Client.heartbeat();
  ASSERT_TRUE(R2.isOk()) << R2.toString();
  EXPECT_EQ(Service->opsHandled(), 1u);
}

TEST(ClientFaultPoints, CorruptRulesTruncateTheReplyBytes) {
  RegistryReset RR;
  auto Service = std::make_shared<service::CompilerService>();
  service::ClientOptions CO;
  CO.MaxRetries = 0;
  service::ServiceClient Client(Service, CO);
  telemetry::Counter &Received =
      series("cg_wire_bytes_total", {{"direction", "received"}});
  const uint64_t Before = Received.value();
  ASSERT_TRUE(Client.heartbeat().isOk());
  const uint64_t ReplyBytes = Received.value() - Before;
  FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "transport.reply",
                        .Kind = FaultKind::Corrupt,
                        .MaxFires = 1});
  FaultRegistry::global().install(Plan);
  // Half the reply arrives, and the client reports it as a garbled reply
  // instead of decoding it.
  Status R = Client.heartbeat();
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.code(), StatusCode::Unavailable);
  EXPECT_NE(R.message().find("garbled reply"), std::string::npos)
      << R.toString();
  EXPECT_EQ(Received.value() - Before - ReplyBytes, ReplyBytes / 2);
}

// -- The soak -----------------------------------------------------------------

TEST(ChaosSoak, SeededServicePlansAreByteEqualToFaultFreeReference) {
  RegistryReset RR;
  FaultRegistry::global().clear();
  EpisodeResult Ref = runLocalEpisode();
  ASSERT_FALSE(Ref.StateLine.empty());
  ASSERT_FALSE(Ref.IrHash.empty());

  for (uint64_t Seed : {11u, 22u, 33u}) {
    FaultPlanSpec Plan;
    Plan.Seed = Seed;
    // Recoverable typed errors sprayed across every service-side layer,
    // plus one hard crash: the env's retry/recovery machinery must absorb
    // all of it without changing a single byte of the episode.
    Plan.Rules.push_back({.Point = "service.handle",
                          .Kind = FaultKind::Error,
                          .Probability = 0.15,
                          .MaxFires = 4});
    Plan.Rules.push_back({.Point = "service.apply_actions",
                          .Kind = FaultKind::Error,
                          .Probability = 0.10,
                          .AfterHits = 2,
                          .MaxFires = 2});
    Plan.Rules.push_back({.Point = "passes.run",
                          .Kind = FaultKind::Error,
                          .Probability = 0.05,
                          .MaxFires = 2});
    Plan.Rules.push_back({.Point = "snapshot.restore",
                          .Kind = FaultKind::Error,
                          .Probability = 0.25,
                          .MaxFires = 2});
    Plan.Rules.push_back({.Point = "service.handle",
                          .Kind = FaultKind::Crash,
                          .AfterHits = 12,
                          .MaxFires = 1});
    FaultRegistry::global().install(Plan);
    EpisodeResult Chaos = runLocalEpisode();
    uint64_t Fires = FaultRegistry::global().totalFires();
    FaultRegistry::global().clear();
    EXPECT_GT(Fires, 0u) << "seed " << Seed << " injected nothing";
    EXPECT_EQ(Chaos.StateLine, Ref.StateLine) << "seed " << Seed;
    EXPECT_EQ(Chaos.IrHash, Ref.IrHash) << "seed " << Seed;
  }
}

TEST(ChaosSoak, ChannelFaultsAreTransparentToTheClient) {
  RegistryReset RR;
  FaultRegistry::global().clear();
  EpisodeResult Ref = runLocalEpisode();
  ASSERT_FALSE(Ref.StateLine.empty());

  core::MakeOptions MO;
  MO.Benchmark = Crc32;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  // More retries per call than the plan can fire in total (12), so no
  // call runs out of retries and every fault must cost a client retry.
  MO.Client.MaxRetries = 12;
  const uint64_t RetriesBefore = series("cg_client_retries_total").value();
  auto Env = core::make("llvm-v0", MO);
  ASSERT_TRUE(Env.isOk()) << Env.status().toString();

  FaultPlanSpec Plan;
  Plan.Seed = 99;
  // Request-direction resets retry cleanly; reply-direction errors and
  // corrupt replies after execution exercise the dedup window (the
  // retried RequestId must get the cached outcome, never a re-execution).
  Plan.Rules.push_back({.Point = "transport.round_trip",
                        .Kind = FaultKind::Error,
                        .Probability = 0.15,
                        .MaxFires = 5});
  Plan.Rules.push_back({.Point = "transport.reply",
                        .Kind = FaultKind::Error,
                        .Probability = 0.10,
                        .MaxFires = 3});
  Plan.Rules.push_back({.Point = "transport.reply",
                        .Kind = FaultKind::Corrupt,
                        .Probability = 0.15,
                        .MaxFires = 4});
  uint64_t CorruptBefore = corruptFaultsTotal().value();
  FaultRegistry::global().install(Plan);
  EpisodeResult Chaos = runEpisode(**Env);
  uint64_t Fires = FaultRegistry::global().totalFires();
  FaultRegistry::global().clear();
  EXPECT_GT(Fires, 0u);
  EXPECT_GT(corruptFaultsTotal().value(), CorruptBefore);
  EXPECT_GE(series("cg_client_retries_total").value() - RetriesBefore, Fires);
  EXPECT_EQ(Chaos.StateLine, Ref.StateLine);
  EXPECT_EQ(Chaos.IrHash, Ref.IrHash);
}

TEST(ChaosSoak, MultiTenantGatewayEpisodesSurviveLinkAndServiceFaults) {
  RegistryReset RR;
  FaultRegistry::global().clear();
  EpisodeResult Ref = runLocalEpisode();
  ASSERT_FALSE(Ref.StateLine.empty());

  gateway::GatewayOptions GO;
  GO.NumShards = 2;
  GO.Tenants = {{"alice", "alice-token"}, {"bob", "bob-token"}};
  auto Gw = serveGateway(std::move(GO), "soak");
  ASSERT_TRUE(Gw);
  auto Alice = connectEnv(*Gw, "alice-token");
  auto Bob = connectEnv(*Gw, "bob-token");
  ASSERT_TRUE(Alice.isOk()) << Alice.status().toString();
  ASSERT_TRUE(Bob.isOk()) << Bob.status().toString();

  FaultPlanSpec Plan;
  Plan.Seed = 44;
  // Gateway→shard link errors (fire before dispatch — the client's
  // idempotent retry re-sends the same RequestId) plus service-side
  // dispatch errors, across both tenants' traffic.
  Plan.Rules.push_back({.Point = "gateway.backend_call",
                        .Kind = FaultKind::Error,
                        .Probability = 0.20,
                        .MaxFires = 4});
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = FaultKind::Error,
                        .Probability = 0.10,
                        .MaxFires = 3});
  // Truncated shard replies: the gateway must turn each into a link fault
  // the env recovers from.
  Plan.Rules.push_back({.Point = "gateway.backend_call",
                        .Kind = FaultKind::Corrupt,
                        .Probability = 0.15,
                        .MaxFires = 3});
  uint64_t CorruptBefore = corruptFaultsTotal().value();
  FaultRegistry::global().install(Plan);
  // Interleave the two tenants' episodes so faults land across both
  // sessions' traffic, not one tenant's warm-up.
  ASSERT_TRUE((*Alice)->reset().isOk());
  ASSERT_TRUE((*Bob)->reset().isOk());
  for (int A : SoakActions) {
    auto RA = (*Alice)->step(A);
    auto RB = (*Bob)->step(A);
    EXPECT_TRUE(RA.isOk()) << RA.status().toString();
    EXPECT_TRUE(RB.isOk()) << RB.status().toString();
  }
  EpisodeResult OutA, OutB;
  auto HA = (*Alice)->observation()["IrHash"];
  auto HB = (*Bob)->observation()["IrHash"];
  ASSERT_TRUE(HA.isOk()) << HA.status().toString();
  ASSERT_TRUE(HB.isOk()) << HB.status().toString();
  OutA = {(*Alice)->state().serialize(), HA->raw().Str};
  OutB = {(*Bob)->state().serialize(), HB->raw().Str};
  uint64_t Fires = FaultRegistry::global().totalFires();
  FaultRegistry::global().clear();
  EXPECT_GT(Fires, 0u);
  EXPECT_GT(corruptFaultsTotal().value(), CorruptBefore);
  EXPECT_EQ(OutA.StateLine, Ref.StateLine);
  EXPECT_EQ(OutA.IrHash, Ref.IrHash);
  EXPECT_EQ(OutB.StateLine, Ref.StateLine);
  EXPECT_EQ(OutB.IrHash, Ref.IrHash);
}

TEST(ChaosSoak, EveryCorruptGatewayReplyIsNoticed) {
  // The shard link carries no checksum, so a corrupt backend reply must
  // never pass for a good one: wherever it lands in the episode, the env
  // retries or recovers, and the episode stays byte-equal.
  RegistryReset RR;
  FaultRegistry::global().clear();
  EpisodeResult Ref = runLocalEpisode();
  ASSERT_FALSE(Ref.StateLine.empty());

  gateway::GatewayOptions GO;
  GO.NumShards = 1;
  auto Gw = serveGateway(std::move(GO), "corrupt");
  ASSERT_TRUE(Gw);
  telemetry::Counter &Retries = series("cg_client_retries_total");
  telemetry::Counter &Recovered = series("cg_env_recoveries_total");
  for (uint64_t K = 0; K < 8; ++K) {
    const uint64_t Noticed = Retries.value() + Recovered.value();
    auto Env = connectEnv(*Gw);
    ASSERT_TRUE(Env.isOk()) << Env.status().toString();
    FaultPlanSpec Plan;
    Plan.Rules.push_back({.Point = "gateway.backend_call",
                          .Kind = FaultKind::Corrupt,
                          .AfterHits = K,
                          .MaxFires = 1});
    FaultRegistry::global().install(Plan);
    EpisodeResult Out = runEpisode(**Env);
    uint64_t Fires = FaultRegistry::global().totalFires();
    FaultRegistry::global().clear();
    EXPECT_EQ(Fires, 1u) << "backend call " << K;
    EXPECT_GE(Retries.value() + Recovered.value() - Noticed, 1u)
        << "corrupt reply to backend call " << K << " went unnoticed";
    EXPECT_EQ(Out.StateLine, Ref.StateLine) << "backend call " << K;
    EXPECT_EQ(Out.IrHash, Ref.IrHash) << "backend call " << K;
  }
}

// -- Deadline propagation -----------------------------------------------------

TEST(ChaosDeadline, CancelAwareDelayRespectsBudgetAndRollsBack) {
  RegistryReset RR;
  envs::registerLlvmEnvironment();
  auto Service = std::make_shared<service::CompilerService>();
  service::ClientOptions CO;
  CO.TimeoutMs = 120;
  CO.MaxRetries = 0;
  service::ServiceClient Client(Service, CO);
  service::StartSessionRequest Start;
  Start.CompilerName = "llvm";
  Start.Bench = testBenchmark();
  auto Sess = Client.startSession(Start);
  ASSERT_TRUE(Sess.isOk()) << Sess.status().toString();

  FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "passes.run",
                        .Kind = FaultKind::Delay,
                        .MaxFires = 1,
                        .DelayMs = 600});
  FaultRegistry::global().install(Plan);
  service::StepRequest Step;
  Step.SessionId = Sess->SessionId;
  service::Action A;
  A.Index = 0;
  Step.Actions = {A};
  Stopwatch Timer;
  auto R = Client.step(Step);
  double TookMs = Timer.elapsedMs();
  FaultRegistry::global().clear();
  // Typed DeadlineExceeded, and the 600ms injected stall must NOT have
  // run to completion: the cancel token cut it at the ~120ms budget (one
  // poll interval of slack, plus scheduler noise).
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::DeadlineExceeded);
  EXPECT_LT(TookMs, 400.0);
  // The session rolled back to its last committed state and stays
  // serviceable: the same step now succeeds.
  auto R2 = Client.step(Step);
  EXPECT_TRUE(R2.isOk()) << R2.status().toString();
}

TEST(ChaosDeadline, ExpiredQueuedGatewayOpsAreShedTyped) {
  RegistryReset RR;
  gateway::GatewayOptions GO;
  GO.NumShards = 1;
  const uint64_t ShedBefore = series("cg_gateway_shed_expired_total").value();
  auto Gw = serveGateway(std::move(GO), "shed");
  ASSERT_TRUE(Gw);
  net::SocketTransport T(Gw->boundAddress());

  service::RequestEnvelope Start;
  Start.Kind = service::RequestKind::StartSession;
  Start.Start.CompilerName = "llvm";
  Start.Start.Bench = testBenchmark();
  auto Raw = T.roundTrip(service::encodeRequest(Start), 10000);
  ASSERT_TRUE(Raw.isOk()) << Raw.status().toString();
  auto StartReply = service::decodeReply(*Raw);
  ASSERT_TRUE(StartReply.isOk());
  ASSERT_EQ(StartReply->Code, StatusCode::Ok);

  // Freeze dispatch, park a step with a 30ms budget in the queue, and let
  // it expire before dispatch resumes: the gateway must shed it with a
  // typed DeadlineExceeded, never silently drop it or burn a backend call.
  Gw->pauseDispatch();
  service::RequestEnvelope Step;
  Step.Kind = service::RequestKind::Step;
  Step.Step.SessionId = StartReply->Start.SessionId;
  service::Action A;
  A.Index = 0;
  Step.Step.Actions = {A};
  Step.DeadlineMs = 30;
  StatusOr<std::string> ShedRaw = unavailable("not sent");
  std::thread Caller(
      [&] { ShedRaw = T.roundTrip(service::encodeRequest(Step), 10000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Gw->resumeDispatch();
  Caller.join();
  ASSERT_TRUE(ShedRaw.isOk()) << ShedRaw.status().toString();
  auto ShedReply = service::decodeReply(*ShedRaw);
  ASSERT_TRUE(ShedReply.isOk());
  EXPECT_EQ(ShedReply->Code, StatusCode::DeadlineExceeded);
  EXPECT_GE(series("cg_gateway_shed_expired_total").value() - ShedBefore, 1u);
}

// -- Hung-shard watchdog ------------------------------------------------------

TEST(ChaosWatchdog, WedgedShardIsForceRestartedAndResumesFromSnapshot) {
  RegistryReset RR;
  gateway::GatewayOptions GO;
  GO.NumShards = 1;
  GO.MonitorIntervalMs = 10;
  GO.StallWindowMs = 200;
  telemetry::Counter &HungRestarted = series("cg_broker_hung_restarts_total");
  telemetry::Counter &CrashRestarted =
      series("cg_broker_shard_restarts_total");
  const uint64_t HungBefore = HungRestarted.value();
  const uint64_t CrashedBefore = CrashRestarted.value();
  auto Gw = serveGateway(std::move(GO), "watchdog");
  ASSERT_TRUE(Gw);

  // Fault-free reference for the byte-equality check afterwards.
  auto RefEnv = connectEnv(*Gw);
  ASSERT_TRUE(RefEnv.isOk()) << RefEnv.status().toString();
  ASSERT_TRUE((*RefEnv)->reset().isOk());
  for (int Act : {0, 1, 2})
    ASSERT_TRUE((*RefEnv)->step(Act).isOk());
  auto RefHash = (*RefEnv)->observation()["IrHash"];
  ASSERT_TRUE(RefHash.isOk());

  auto Env = connectEnv(*Gw);
  ASSERT_TRUE(Env.isOk()) << Env.status().toString();
  ASSERT_TRUE((*Env)->reset().isOk());
  // One committed step publishes a snapshot — the zero-replay resume
  // target after the wedge.
  ASSERT_TRUE((*Env)->step(0).isOk());

  uint64_t ReplayedBefore = replayedActionsTotal().value();
  FaultPlanSpec Plan;
  // A non-cooperative 1.2s stall inside pass execution: no cancel-token
  // polls, so no heartbeat progress — only the watchdog can clear it.
  Plan.Rules.push_back({.Point = "passes.run",
                        .Kind = FaultKind::Delay,
                        .MaxFires = 1,
                        .DelayMs = 1200,
                        .CancelAware = false});
  FaultRegistry::global().install(Plan);
  auto R = (*Env)->step(1);
  FaultRegistry::global().clear();
  // The step must come back Ok: the wedged shard was force-restarted by
  // the watchdog and the env re-established its session transparently.
  EXPECT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_GE(HungRestarted.value() - HungBefore, 1u);
  EXPECT_EQ(CrashRestarted.value(), CrashedBefore)
      << "wedge must be counted as a hung restart, not a crash restart";
  // Resume came from the content-addressed snapshot: zero actions
  // replayed.
  EXPECT_EQ(replayedActionsTotal().value(), ReplayedBefore);

  ASSERT_TRUE((*Env)->step(2).isOk());
  auto Hash = (*Env)->observation()["IrHash"];
  ASSERT_TRUE(Hash.isOk());
  EXPECT_EQ(Hash->raw().Str, RefHash->raw().Str);
  EXPECT_EQ((*Env)->state().Actions, (*RefEnv)->state().Actions);
}
