//===- tests/service_test.cpp - RPC runtime robustness ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The §IV-B contract: serialized messaging, session lifecycle, fault
// injection (crashes, hangs, flaky transport), crash recovery with state
// replay, and wire-format fuzzing.

#include "core/Registry.h"
#include "datasets/DatasetRegistry.h"
#include "envs/llvm/LlvmSession.h"
#include "fault/FaultRegistry.h"
#include "service/CompilerService.h"
#include "service/Serialization.h"
#include "service/ServiceClient.h"
#include "telemetry/MetricsRegistry.h"

#include <gtest/gtest.h>

using namespace compiler_gym;
using namespace compiler_gym::service;

namespace {

/// The process-wide series \p Name; tests diff its value() across a window
/// that runs one client or env.
telemetry::Counter &series(const std::string &Name) {
  return telemetry::MetricsRegistry::global().counter(Name);
}

datasets::Benchmark testBenchmark() {
  auto B = datasets::DatasetRegistry::instance().resolve(
      "benchmark://cbench-v1/crc32");
  EXPECT_TRUE(B.isOk());
  return *B;
}

TEST(Serialization, RequestRoundTrips) {
  RequestEnvelope Req;
  Req.Kind = RequestKind::Step;
  Req.Step.SessionId = 42;
  Action A1;
  A1.Index = 7;
  A1.Values = {1, -2, 3};
  Req.Step.Actions = {A1};
  Req.Step.ObservationSpaces = {"Autophase", "Ir"};
  auto Decoded = decodeRequest(encodeRequest(Req));
  ASSERT_TRUE(Decoded.isOk()) << Decoded.status().toString();
  EXPECT_EQ(Decoded->Kind, RequestKind::Step);
  EXPECT_EQ(Decoded->Step.SessionId, 42u);
  ASSERT_EQ(Decoded->Step.Actions.size(), 1u);
  EXPECT_EQ(Decoded->Step.Actions[0].Index, 7);
  EXPECT_EQ(Decoded->Step.Actions[0].Values, (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(Decoded->Step.ObservationSpaces,
            (std::vector<std::string>{"Autophase", "Ir"}));
}

TEST(Serialization, StartSessionCarriesBenchmark) {
  RequestEnvelope Req;
  Req.Kind = RequestKind::StartSession;
  Req.Start.CompilerName = "llvm";
  Req.Start.Bench.Uri = "benchmark://x/y";
  Req.Start.Bench.IrText = "module \"m\"\n";
  Req.Start.Bench.Runnable = true;
  Req.Start.Bench.Inputs = {9};
  auto Decoded = decodeRequest(encodeRequest(Req));
  ASSERT_TRUE(Decoded.isOk());
  EXPECT_EQ(Decoded->Start.Bench.Uri, "benchmark://x/y");
  EXPECT_EQ(Decoded->Start.Bench.IrText, "module \"m\"\n");
  EXPECT_TRUE(Decoded->Start.Bench.Runnable);
}

TEST(Serialization, ReplyRoundTripsObservations) {
  ReplyEnvelope Reply;
  Reply.Code = StatusCode::Ok;
  Reply.Step.EndOfSession = true;
  Observation Obs;
  Obs.Type = ObservationType::Int64List;
  Obs.Ints = {1, 2, 3};
  Reply.Step.Observations.push_back(Obs);
  Observation Str;
  Str.Type = ObservationType::String;
  Str.Str = std::string("binary\0data", 11);
  Reply.Step.Observations.push_back(Str);
  auto Decoded = decodeReply(encodeReply(Reply));
  ASSERT_TRUE(Decoded.isOk());
  EXPECT_TRUE(Decoded->Step.EndOfSession);
  ASSERT_EQ(Decoded->Step.Observations.size(), 2u);
  EXPECT_EQ(Decoded->Step.Observations[0].Ints,
            (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Decoded->Step.Observations[1].Str.size(), 11u);
}

TEST(Serialization, ErrorsRoundTrip) {
  ReplyEnvelope Reply;
  Reply.Code = StatusCode::DeadlineExceeded;
  Reply.ErrorMessage = "too slow";
  auto Decoded = decodeReply(encodeReply(Reply));
  ASSERT_TRUE(Decoded.isOk());
  EXPECT_EQ(Decoded->status().code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Decoded->status().message(), "too slow");
}

TEST(SerializationFuzz, RandomBytesNeverCrashDecoders) {
  Rng Gen(0xF022);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    size_t Len = Gen.bounded(200);
    std::string Bytes;
    for (size_t I = 0; I < Len; ++I)
      Bytes.push_back(static_cast<char>(Gen.bounded(256)));
    (void)decodeRequest(Bytes); // Must not crash; errors are fine.
    (void)decodeReply(Bytes);
  }
}

TEST(SerializationFuzz, BitflippedRealMessagesNeverCrash) {
  RequestEnvelope Req;
  Req.Kind = RequestKind::StartSession;
  Req.Start.CompilerName = "llvm";
  Req.Start.Bench = testBenchmark();
  std::string Bytes = encodeRequest(Req);
  Rng Gen(0xF1E);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::string Mutated = Bytes;
    size_t Flips = 1 + Gen.bounded(8);
    for (size_t F = 0; F < Flips; ++F)
      Mutated[Gen.bounded(Mutated.size())] ^=
          static_cast<char>(1 << Gen.bounded(8));
    auto Decoded = decodeRequest(Mutated);
    if (Decoded.isOk()) {
      // Occasionally decodes (e.g. payload-only flips); must round-trip.
      (void)encodeRequest(*Decoded);
    }
  }
}

TEST(Service, SessionLifecycle) {
  envs::registerLlvmEnvironment();
  auto Service = std::make_shared<CompilerService>();
  ServiceClient Client(Service);

  StartSessionRequest Req;
  Req.CompilerName = "llvm";
  Req.Bench = testBenchmark();
  auto Reply = Client.startSession(Req);
  ASSERT_TRUE(Reply.isOk()) << Reply.status().toString();
  EXPECT_GT(Reply->Space.size(), 0u);
  EXPECT_FALSE(Reply->ObservationSpaces.empty());
  EXPECT_EQ(Service->numSessions(), 1u);

  StepRequest Step;
  Step.SessionId = Reply->SessionId;
  Action A;
  A.Index = 0;
  Step.Actions = {A};
  Step.ObservationSpaces = {"IrInstructionCount"};
  auto StepReplyOr = Client.step(Step);
  ASSERT_TRUE(StepReplyOr.isOk()) << StepReplyOr.status().toString();
  ASSERT_EQ(StepReplyOr->Observations.size(), 1u);
  EXPECT_GT(StepReplyOr->Observations[0].IntValue, 0);

  ASSERT_TRUE(Client.endSession(Reply->SessionId).isOk());
  EXPECT_EQ(Service->numSessions(), 0u);
}

TEST(Service, ErrorsForUnknownEntities) {
  envs::registerLlvmEnvironment();
  auto Service = std::make_shared<CompilerService>();
  ServiceClient Client(Service);

  StartSessionRequest Req;
  Req.CompilerName = "not-a-compiler";
  Req.Bench = testBenchmark();
  auto Reply = Client.startSession(Req);
  ASSERT_FALSE(Reply.isOk());
  EXPECT_EQ(Reply.status().code(), StatusCode::NotFound);

  StepRequest Step;
  Step.SessionId = 999;
  auto StepReply = Client.step(Step);
  ASSERT_FALSE(StepReply.isOk());
  EXPECT_EQ(StepReply.status().code(), StatusCode::NotFound);

  Req.CompilerName = "llvm";
  Req.ActionSpaceName = "bogus-space";
  auto Reply2 = Client.startSession(Req);
  ASSERT_FALSE(Reply2.isOk());
  EXPECT_EQ(Reply2.status().code(), StatusCode::NotFound);
}

TEST(Service, InvalidActionIndexIsOutOfRange) {
  envs::registerLlvmEnvironment();
  auto Service = std::make_shared<CompilerService>();
  ServiceClient Client(Service);
  StartSessionRequest Req;
  Req.CompilerName = "llvm";
  Req.Bench = testBenchmark();
  auto Reply = Client.startSession(Req);
  ASSERT_TRUE(Reply.isOk());
  StepRequest Step;
  Step.SessionId = Reply->SessionId;
  Action A;
  A.Index = 100000;
  Step.Actions = {A};
  auto R = Client.step(Step);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::OutOfRange);
}

TEST(Service, MalformedBenchmarkFailsCleanly) {
  envs::registerLlvmEnvironment();
  auto Service = std::make_shared<CompilerService>();
  ServiceClient Client(Service);
  StartSessionRequest Req;
  Req.CompilerName = "llvm";
  Req.Bench.Uri = "benchmark://custom/bad";
  Req.Bench.IrText = "this is not ir";
  auto Reply = Client.startSession(Req);
  ASSERT_FALSE(Reply.isOk());
  EXPECT_EQ(Reply.status().code(), StatusCode::InvalidArgument);
  EXPECT_EQ(Service->numSessions(), 0u);
}

TEST(Service, HeartbeatWorks) {
  auto Service = std::make_shared<CompilerService>();
  ServiceClient Client(Service);
  const uint64_t Before = series("cg_client_rpcs_total").value();
  EXPECT_TRUE(Client.heartbeat().isOk());
  EXPECT_EQ(series("cg_client_rpcs_total").value(), Before + 1);
}

// -- Fault tolerance -----------------------------------------------------------

TEST(FaultTolerance, CrashedServiceReturnsAborted) {
  envs::registerLlvmEnvironment();
  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = fault::FaultKind::Crash,
                        .AfterHits = 2,
                        .MaxFires = 1});
  fault::ScopedFaultPlan Armed(Plan);
  auto Service = std::make_shared<CompilerService>();
  ServiceClient Client(Service);
  EXPECT_TRUE(Client.heartbeat().isOk());
  EXPECT_TRUE(Client.heartbeat().isOk());
  Status Third = Client.heartbeat();
  ASSERT_FALSE(Third.isOk());
  EXPECT_EQ(Third.code(), StatusCode::Aborted);
  EXPECT_TRUE(Service->crashed());
  Service->restart();
  EXPECT_FALSE(Service->crashed());
  EXPECT_TRUE(Client.heartbeat().isOk());
}

TEST(FaultTolerance, EnvRecoversFromBackendCrashTransparently) {
  // The paper's §IV-B story end-to-end: the service dies mid-episode, the
  // env restarts it and replays its action history; the user never sees an
  // error, and the state is bit-identical to an uninterrupted episode.
  // The fault plan is process-wide, so the fault-free reference (env B)
  // runs to completion before the plan is armed.
  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  telemetry::Counter &Recovered = series("cg_env_recoveries_total");
  uint64_t Before = Recovered.value();
  auto EnvB = core::make("llvm-v0", Opts);
  ASSERT_TRUE(EnvB.isOk());
  ASSERT_TRUE((*EnvB)->reset().isOk());
  for (int Step = 0; Step < 10; ++Step)
    ASSERT_TRUE((*EnvB)->step(Step % 5).isOk());
  EXPECT_EQ(Recovered.value(), Before);
  auto HashB = (*EnvB)->observation()["IrHash"];
  ASSERT_TRUE(HashB.isOk());

  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = fault::FaultKind::Crash,
                        .AfterHits = 7,
                        .MaxFires = 1});
  fault::ScopedFaultPlan Armed(Plan);
  Before = Recovered.value();
  auto EnvA = core::make("llvm-v0", Opts);
  ASSERT_TRUE(EnvA.isOk());
  ASSERT_TRUE((*EnvA)->reset().isOk());
  for (int Step = 0; Step < 10; ++Step) {
    auto RA = (*EnvA)->step(Step % 5);
    ASSERT_TRUE(RA.isOk()) << "step " << Step << ": "
                           << RA.status().toString();
  }
  EXPECT_GE(Recovered.value() - Before, 1u);
  auto HashA = (*EnvA)->observation()["IrHash"];
  ASSERT_TRUE(HashA.isOk());
  EXPECT_EQ(HashA->raw().Str, HashB->raw().Str);
}

TEST(FaultTolerance, HangsAreRetriedAsTimeouts) {
  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  Opts.Client.TimeoutMs = 40;
  Opts.Client.MaxRetries = 6;
  // Legacy per-attempt timeouts: with deadline propagation the 40ms
  // budget would be spent after one attempt (client retries would be
  // refused and recovery would move up to the env layer instead).
  Opts.Client.PropagateDeadline = false;
  // The third op sleeps past the client deadline without polling its
  // cancel token (a hang, not a slow pass).
  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = fault::FaultKind::Delay,
                        .AfterHits = 2,
                        .MaxFires = 1,
                        .DelayMs = 100,
                        .CancelAware = false});
  fault::ScopedFaultPlan Armed(Plan);
  telemetry::Counter &Retries = series("cg_client_retries_total");
  const uint64_t Before = Retries.value();
  auto Env = core::make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  auto R = (*Env)->step(0);
  EXPECT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_GE(Retries.value() - Before, 1u);
}

namespace {

/// Fails every RPC with a typed channel error while recording the
/// DeadlineMs each attempt carried — the retry-budget accounting probe.
class DeadlineRecordingTransport : public Transport {
public:
  StatusOr<std::string> roundTrip(const std::string &Bytes, int) override {
    auto Req = decodeRequest(Bytes);
    EXPECT_TRUE(Req.isOk());
    if (Req.isOk())
      Deadlines.push_back(Req->DeadlineMs);
    return unavailable("injected channel failure");
  }

  std::vector<uint32_t> Deadlines;
};

} // namespace

TEST(FaultTolerance, RetryBudgetShrinksAcrossAttemptsAndNeverWraps) {
  auto T = std::make_shared<DeadlineRecordingTransport>();
  ClientOptions Opts;
  Opts.TimeoutMs = 60;
  Opts.MaxRetries = 50;
  Opts.RetryBackoffMs = 8;
  Opts.RetryBackoffMaxMs = 16;
  ServiceClient Client(nullptr, T, Opts);
  Status S = Client.heartbeat();
  ASSERT_FALSE(S.isOk());
  const std::vector<uint32_t> &D = T->Deadlines;
  // The failing channel was retried, but the 60ms budget stopped the
  // attempts well short of MaxRetries.
  ASSERT_GE(D.size(), 2u);
  EXPECT_LT(D.size(), 10u);
  // First attempt carries (nearly) the whole budget; every retry carries
  // strictly less than its predecessor; and the stamp never exceeds the
  // budget or wraps negative (DeadlineMs is unsigned — an elapsed time
  // past the budget must clamp to expiry, not wrap to ~4 billion ms).
  EXPECT_GE(D.front(), 50u);
  for (size_t I = 0; I < D.size(); ++I) {
    EXPECT_GT(D[I], 0u) << "attempt " << I;
    EXPECT_LE(D[I], 60u) << "attempt " << I;
    if (I)
      EXPECT_LT(D[I], D[I - 1]) << "attempt " << I;
  }
}

TEST(FaultTolerance, FlakyChannelIsSurvivable) {
  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "IrInstructionCount";
  // 10% of requests are dropped before delivery and 10% of replies
  // arrive garbled.
  fault::FaultPlanSpec Plan;
  Plan.Seed = 99;
  Plan.Rules.push_back({.Point = "transport.round_trip",
                        .Kind = fault::FaultKind::Error,
                        .Probability = 0.10,
                        .Code = StatusCode::DeadlineExceeded});
  Plan.Rules.push_back({.Point = "transport.reply",
                        .Kind = fault::FaultKind::Corrupt,
                        .Probability = 0.10});
  fault::ScopedFaultPlan Armed(Plan);
  Opts.Client.TimeoutMs = 2000;
  Opts.Client.MaxRetries = 8;
  telemetry::Counter &Retries = series("cg_client_retries_total");
  const uint64_t Before = Retries.value();
  auto Env = core::make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  for (int Step = 0; Step < 20; ++Step) {
    auto R = (*Env)->step(Step % 7);
    ASSERT_TRUE(R.isOk()) << "step " << Step << ": "
                          << R.status().toString();
  }
  EXPECT_GE(Retries.value() - Before, 1u);
}

TEST(FaultTolerance, RetriedRequestsAreDeduplicatedByTheService) {
  // A retry re-sends the same RequestId; the service must replay the
  // stored reply instead of re-executing (double-applying the actions).
  envs::registerLlvmEnvironment();
  auto Service = std::make_shared<CompilerService>();
  ServiceClient Client(Service);
  StartSessionRequest Req;
  Req.CompilerName = "llvm";
  Req.Bench = testBenchmark();
  auto Reply = Client.startSession(Req);
  ASSERT_TRUE(Reply.isOk());

  RequestEnvelope Step;
  Step.Kind = RequestKind::Step;
  Step.RequestId = 0xD5D5;
  Step.Step.SessionId = Reply->SessionId;
  Action A;
  A.Index = 1;
  Step.Step.Actions = {A};
  std::string Bytes = encodeRequest(Step);
  uint64_t OpsBefore = Service->opsHandled();
  std::string First = Service->handle(Bytes);
  std::string Second = Service->handle(Bytes); // The "retry".
  EXPECT_EQ(First, Second);
  // The duplicate performed no compiler work.
  EXPECT_EQ(Service->opsHandled(), OpsBefore + 1);
}

/// Corrupts the reply of exactly one call into undecodable bytes. The
/// request itself still executes on the service — the hazard under test.
class CorruptOneReplyTransport : public Transport {
public:
  CorruptOneReplyTransport(std::shared_ptr<Transport> Inner, int CorruptCall)
      : Inner(std::move(Inner)), CorruptCall(CorruptCall) {}

  StatusOr<std::string> roundTrip(const std::string &Bytes,
                                  int TimeoutMs) override {
    StatusOr<std::string> Reply = Inner->roundTrip(Bytes, TimeoutMs);
    if (++CallIndex == CorruptCall)
      return std::string("\xFF\xFF\xFF");
    return Reply;
  }

private:
  std::shared_ptr<Transport> Inner;
  int CallIndex = 0;
  int CorruptCall;
};

TEST(FaultTolerance, GarbledReplyRetryDoesNotDoubleApplyActions) {
  // A garbled reply means the request DID execute; the client retry must
  // not execute it again. End state must match a fault-free episode.
  core::MakeOptions MO;
  MO.Benchmark = "benchmark://cbench-v1/crc32";
  MO.ObservationSpace = "none";
  MO.RewardSpace = "none";
  auto EnvOpts = core::resolveMakeOptions("llvm-v0", MO);
  ASSERT_TRUE(EnvOpts.isOk());
  auto Service = std::make_shared<CompilerService>();
  auto Base = std::make_shared<QueueTransport>(
      [Service](const std::string &Bytes) { return Service->handle(Bytes); });
  // Call 4 = the second step (1: StartSession, 2: reset obs, 3: step 0).
  auto Corrupt = std::make_shared<CorruptOneReplyTransport>(Base, 4);
  auto Env = core::CompilerEnv::attach(*EnvOpts, Service, Corrupt);
  ASSERT_TRUE(Env.isOk());
  // The fault-free reference runs first, so the retry window holds only
  // the faulted env.
  auto RefEnv = core::make("llvm-v0", MO);
  ASSERT_TRUE(RefEnv.isOk());
  ASSERT_TRUE((*RefEnv)->reset().isOk());
  for (int Step = 0; Step < 6; ++Step)
    ASSERT_TRUE((*RefEnv)->step(Step % 7).isOk());
  telemetry::Counter &Retries = series("cg_client_retries_total");
  const uint64_t Before = Retries.value();
  ASSERT_TRUE((*Env)->reset().isOk());
  for (int Step = 0; Step < 6; ++Step) {
    auto R = (*Env)->step(Step % 7);
    ASSERT_TRUE(R.isOk()) << "step " << Step << ": "
                          << R.status().toString();
  }
  EXPECT_GE(Retries.value() - Before, 1u);
  auto Hash = (*Env)->observation()["IrHash"];
  auto RefHash = (*RefEnv)->observation()["IrHash"];
  ASSERT_TRUE(Hash.isOk());
  ASSERT_TRUE(RefHash.isOk());
  EXPECT_EQ(Hash->raw().Str, RefHash->raw().Str);
}

TEST(FaultTolerance, ForkSurvivesOnSharedService) {
  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  auto Env = core::make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  ASSERT_TRUE((*Env)->step(1).isOk());
  auto Fork = (*Env)->fork();
  ASSERT_TRUE(Fork.isOk());
  // Both keep working.
  EXPECT_TRUE((*Env)->step(2).isOk());
  EXPECT_TRUE((*Fork)->step(3).isOk());
}

TEST(BenchmarkCache, AmortizesEnvironmentInit) {
  envs::LlvmSession::clearBenchmarkCache();
  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/sha";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  auto Env = core::make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  uint64_t Misses0 = envs::LlvmSession::cacheMisses();
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE((*Env)->reset().isOk());
  // One cold parse; every further reset is a cache hit (O(1) init).
  EXPECT_EQ(envs::LlvmSession::cacheMisses(), Misses0 + 1);
  EXPECT_GE(envs::LlvmSession::cacheHits(), 4u);
}

} // namespace
