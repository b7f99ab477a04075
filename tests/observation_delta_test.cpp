//===- tests/observation_delta_test.cpp - Wire-level deltas ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The wire-delta contract: delta encode/apply round-trips, serialization of
// delta-carrying replies (and the legacy full-payload path), malformed-delta
// rejection, and the end-to-end epoch handshake through CompilerEnv —
// including equality with full recomputation, fork, crash recovery, and
// the service's observation cache as the source of delta bases.

#include "core/Registry.h"
#include "fault/FaultRegistry.h"
#include "runtime/ServiceBroker.h"
#include "service/CompilerService.h"
#include "service/Serialization.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::service;

namespace {

Observation intsObs(std::vector<int64_t> V, uint64_t Key = 0) {
  Observation O;
  O.Type = ObservationType::Int64List;
  O.Ints = std::move(V);
  O.StateKey = Key;
  return O;
}

Observation bytesObs(std::string S, uint64_t Key = 0) {
  Observation O;
  O.Type = ObservationType::Binary;
  O.Str = std::move(S);
  O.StateKey = Key;
  return O;
}

TEST(ObservationDelta, EligibilityMatchesPayloadKinds) {
  EXPECT_TRUE(deltaEligible(ObservationType::Int64List));
  EXPECT_TRUE(deltaEligible(ObservationType::DoubleList));
  EXPECT_TRUE(deltaEligible(ObservationType::String));
  EXPECT_TRUE(deltaEligible(ObservationType::Binary));
  EXPECT_FALSE(deltaEligible(ObservationType::Int64Value));
  EXPECT_FALSE(deltaEligible(ObservationType::DoubleValue));
}

TEST(ObservationDelta, EqualLengthChangedRunsRoundTrip) {
  std::vector<int64_t> BaseV(256, 7), FullV(256, 7);
  FullV[10] = 1;
  FullV[11] = 2;
  FullV[200] = 3;
  Observation Base = intsObs(BaseV), Full = intsObs(FullV);
  Observation Delta;
  ASSERT_TRUE(encodeObservationDelta(Base, Full, Delta));
  EXPECT_TRUE(Delta.IsDelta);
  EXPECT_LT(observationWireSize(Delta), observationWireSize(Full));
  // Two well-separated runs -> two segments.
  EXPECT_EQ(Delta.Segments.size(), 2u);
  auto Applied = applyObservationDelta(Base, Delta);
  ASSERT_TRUE(Applied.isOk()) << Applied.status().toString();
  EXPECT_EQ(Applied->Ints, FullV);
}

TEST(ObservationDelta, LengthChangeUsesPrefixSuffixWindow) {
  std::string BaseS(4000, 'a');
  std::string FullS = BaseS.substr(0, 1000) + "XYZ" + BaseS.substr(1200);
  Observation Base = bytesObs(BaseS), Full = bytesObs(FullS);
  Observation Delta;
  ASSERT_TRUE(encodeObservationDelta(Base, Full, Delta));
  ASSERT_EQ(Delta.Segments.size(), 1u);
  EXPECT_LT(Delta.Segments[0].Str.size(), 100u);
  auto Applied = applyObservationDelta(Base, Delta);
  ASSERT_TRUE(Applied.isOk());
  EXPECT_EQ(Applied->Str, FullS);
}

TEST(ObservationDelta, UnchangedPayloadYieldsEmptyDelta) {
  std::vector<int64_t> V(64, 5);
  Observation Base = intsObs(V), Full = intsObs(V);
  Observation Delta;
  ASSERT_TRUE(encodeObservationDelta(Base, Full, Delta));
  EXPECT_TRUE(Delta.Segments.empty());
  auto Applied = applyObservationDelta(Base, Delta);
  ASSERT_TRUE(Applied.isOk());
  EXPECT_EQ(Applied->Ints, V);
}

TEST(ObservationDelta, RefusesWhenNotSmallerOrMismatched) {
  // Tiny payloads: segment overhead exceeds the full payload.
  Observation Base = intsObs({1}), Full = intsObs({2});
  Observation Delta;
  EXPECT_FALSE(encodeObservationDelta(Base, Full, Delta));
  // Type mismatch.
  Observation S = bytesObs("abc");
  EXPECT_FALSE(encodeObservationDelta(Base, S, Delta));
  // Scalars are never delta-encoded.
  Observation A, B;
  A.Type = B.Type = ObservationType::Int64Value;
  A.IntValue = 1;
  B.IntValue = 2;
  EXPECT_FALSE(encodeObservationDelta(A, B, Delta));
}

TEST(ObservationDelta, RejectsMalformedSegments) {
  Observation Base = intsObs(std::vector<int64_t>(16, 1));
  Observation Delta;
  Delta.Type = ObservationType::Int64List;
  Delta.IsDelta = true;
  ObservationSegment S;
  S.Start = 20; // Beyond the base.
  S.DropCount = 1;
  S.Ints = {9};
  Delta.Segments = {S};
  EXPECT_FALSE(applyObservationDelta(Base, Delta).isOk());
  // Overlapping / out-of-order segments.
  ObservationSegment S1, S2;
  S1.Start = 4;
  S1.DropCount = 4;
  S1.Ints = {9, 9, 9, 9};
  S2.Start = 6; // Overlaps S1's dropped range.
  S2.DropCount = 1;
  S2.Ints = {8};
  Delta.Segments = {S1, S2};
  EXPECT_FALSE(applyObservationDelta(Base, Delta).isOk());
  // DropCount overflowing the base tail.
  ObservationSegment S3;
  S3.Start = 10;
  S3.DropCount = 10;
  Delta.Segments = {S3};
  EXPECT_FALSE(applyObservationDelta(Base, Delta).isOk());
  // A non-delta observation is rejected outright.
  EXPECT_FALSE(applyObservationDelta(Base, Base).isOk());
}

TEST(ObservationDelta, DeltaRepliesSurviveSerialization) {
  ReplyEnvelope Reply;
  Reply.Step.ObservationNames = {"Inst2vec", "Runtime"};
  Observation Delta;
  Delta.Type = ObservationType::DoubleList;
  Delta.IsDelta = true;
  Delta.StateKey = 0xABCD;
  Delta.BaseKey = 0x1234;
  ObservationSegment Seg;
  Seg.Start = 3;
  Seg.DropCount = 2;
  Seg.Doubles = {1.5, -2.5, 3.5};
  Delta.Segments = {Seg};
  Observation Full; // Legacy full payload rides in the same reply.
  Full.Type = ObservationType::DoubleValue;
  Full.DoubleValue = 0.25;
  Reply.Step.Observations = {Delta, Full};

  auto Decoded = decodeReply(encodeReply(Reply));
  ASSERT_TRUE(Decoded.isOk()) << Decoded.status().toString();
  ASSERT_EQ(Decoded->Step.Observations.size(), 2u);
  const Observation &D = Decoded->Step.Observations[0];
  EXPECT_TRUE(D.IsDelta);
  EXPECT_EQ(D.StateKey, 0xABCDu);
  EXPECT_EQ(D.BaseKey, 0x1234u);
  ASSERT_EQ(D.Segments.size(), 1u);
  EXPECT_EQ(D.Segments[0].Start, 3u);
  EXPECT_EQ(D.Segments[0].DropCount, 2u);
  EXPECT_EQ(D.Segments[0].Doubles, (std::vector<double>{1.5, -2.5, 3.5}));
  const Observation &F = Decoded->Step.Observations[1];
  EXPECT_FALSE(F.IsDelta);
  EXPECT_EQ(F.DoubleValue, 0.25);
}

TEST(ObservationDelta, BaseKeysSurviveRequestSerialization) {
  RequestEnvelope Req;
  Req.Kind = RequestKind::Step;
  Req.Step.SessionId = 9;
  Req.Step.ObservationSpaces = {"Inst2vec", "Programl"};
  Req.Step.ObservationBaseKeys = {0x11, 0x22};
  auto Decoded = decodeRequest(encodeRequest(Req));
  ASSERT_TRUE(Decoded.isOk());
  EXPECT_EQ(Decoded->Step.ObservationBaseKeys,
            (std::vector<uint64_t>{0x11, 0x22}));
  // Legacy requests without base keys still decode.
  Req.Step.ObservationBaseKeys.clear();
  auto Legacy = decodeRequest(encodeRequest(Req));
  ASSERT_TRUE(Legacy.isOk());
  EXPECT_TRUE(Legacy->Step.ObservationBaseKeys.empty());
}

// -- End-to-end: the epoch handshake through the env stack -------------------

core::MakeOptions plainLlvm(const std::string &Benchmark) {
  core::MakeOptions Opts;
  Opts.Benchmark = Benchmark;
  Opts.ObservationSpace = "none"; // "" would mean "the env default".
  Opts.RewardSpace = "none";
  return Opts;
}

TEST(ObservationDeltaE2E, RepeatedObservationsArriveAsDeltas) {
  auto Env = core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
  ASSERT_TRUE(Env.isOk()) << Env.status().toString();
  ASSERT_TRUE((*Env)->reset().isOk());

  const std::vector<std::string> Spaces = {"Inst2vec", "Programl",
                                           "Autophase"};
  auto First = (*Env)->rawObservations(Spaces);
  ASSERT_TRUE(First.isOk()) << First.status().toString();
  EXPECT_EQ((*Env)->deltaRepliesReceived(), 0u) << "no base on first fetch";

  // Same state, advertised bases: the service answers "unchanged" deltas.
  uint64_t BytesBefore = (*Env)->client().wireBytesReceived();
  auto Second = (*Env)->rawObservations(Spaces);
  ASSERT_TRUE(Second.isOk());
  uint64_t UnchangedBytes = (*Env)->client().wireBytesReceived() - BytesBefore;
  EXPECT_EQ((*Env)->deltaRepliesReceived(), 3u);
  for (size_t I = 0; I < Spaces.size(); ++I) {
    EXPECT_EQ((*First)[I].Ints, (*Second)[I].Ints) << Spaces[I];
    EXPECT_EQ((*First)[I].Doubles, (*Second)[I].Doubles) << Spaces[I];
    EXPECT_EQ((*First)[I].Str, (*Second)[I].Str) << Spaces[I];
  }

  // Step, then observe: a real delta, reconstructed to exactly what a
  // delta-blind env computes from scratch.
  size_t NumActions = (*Env)->actionSpace().ActionNames.size();
  ASSERT_GT(NumActions, 0u);
  int Action = 0;
  for (size_t I = 0; I < NumActions; ++I)
    if ((*Env)->actionSpace().ActionNames[I] == "dce") {
      Action = static_cast<int>(I);
      break;
    }
  ASSERT_TRUE((*Env)->step({Action}).isOk());
  uint64_t DeltasBefore = (*Env)->deltaRepliesReceived();
  auto Third = (*Env)->rawObservations(Spaces);
  ASSERT_TRUE(Third.isOk());
  EXPECT_GT((*Env)->deltaRepliesReceived(), DeltasBefore);

  auto Fresh = core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
  ASSERT_TRUE(Fresh.isOk());
  ASSERT_TRUE((*Fresh)->reset().isOk());
  ASSERT_TRUE((*Fresh)->step({Action}).isOk());
  auto Reference = (*Fresh)->rawObservations(Spaces);
  ASSERT_TRUE(Reference.isOk());
  for (size_t I = 0; I < Spaces.size(); ++I) {
    EXPECT_EQ((*Third)[I].Ints, (*Reference)[I].Ints) << Spaces[I];
    EXPECT_EQ((*Third)[I].Doubles, (*Reference)[I].Doubles) << Spaces[I];
    EXPECT_EQ((*Third)[I].Str, (*Reference)[I].Str) << Spaces[I];
  }

  // Wire accounting: the unchanged-state reply was far smaller than the
  // initial full fetch.
  uint64_t FullBytes = 0;
  {
    auto Env2 =
        core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
    ASSERT_TRUE(Env2.isOk());
    ASSERT_TRUE((*Env2)->reset().isOk());
    uint64_t Before = (*Env2)->client().wireBytesReceived();
    ASSERT_TRUE((*Env2)->rawObservations(Spaces).isOk());
    FullBytes = (*Env2)->client().wireBytesReceived() - Before;
  }
  EXPECT_LT(UnchangedBytes, FullBytes / 4);
}

TEST(ObservationDeltaE2E, ForkedEnvInheritsBasesAndStaysCorrect) {
  auto Env = core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  const std::vector<std::string> Spaces = {"Inst2vec", "Programl"};
  ASSERT_TRUE((*Env)->rawObservations(Spaces).isOk());

  auto Fork = (*Env)->fork();
  ASSERT_TRUE(Fork.isOk()) << Fork.status().toString();
  // The clone holds the parent's bases for the identical state: its first
  // fetch can already be an unchanged-delta.
  auto Obs = (*Fork)->rawObservations(Spaces);
  ASSERT_TRUE(Obs.isOk());
  EXPECT_GT((*Fork)->deltaRepliesReceived(), 0u);
  auto Parent = (*Env)->rawObservations(Spaces);
  ASSERT_TRUE(Parent.isOk());
  for (size_t I = 0; I < Spaces.size(); ++I) {
    EXPECT_EQ((*Obs)[I].Doubles, (*Parent)[I].Doubles);
    EXPECT_EQ((*Obs)[I].Str, (*Parent)[I].Str);
  }
}

TEST(ObservationDeltaE2E, DuplicateSpaceNamesInOneRequest) {
  // A request naming the same space twice gets two deltas against the same
  // advertised base (the second answered from the cache entry the first
  // inserted); reconstruction must settle both against the pre-request
  // base.
  auto Env = core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  const std::vector<std::string> Dup = {"Inst2vec", "Inst2vec"};
  ASSERT_TRUE((*Env)->rawObservations(Dup).isOk());
  for (int Step = 0; Step < 3; ++Step) {
    ASSERT_TRUE((*Env)->step({0}).isOk());
    auto Obs = (*Env)->rawObservations(Dup);
    ASSERT_TRUE(Obs.isOk()) << Obs.status().toString();
    EXPECT_EQ((*Obs)[0].Doubles, (*Obs)[1].Doubles);
  }
}

/// Index of \p Name in \p Env's action space, or -1.
int actionIndex(core::CompilerEnv &Env, const std::string &Name) {
  const std::vector<std::string> &Names = Env.actionSpace().ActionNames;
  auto It = std::find(Names.begin(), Names.end(), Name);
  return It == Names.end() ? -1 : static_cast<int>(It - Names.begin());
}

/// The Inst2vec observation of crc32 after \p Actions, from a fresh env.
std::vector<double> referenceInst2vec(const std::vector<int> &Actions) {
  auto Env = core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
  EXPECT_TRUE(Env.isOk());
  EXPECT_TRUE((*Env)->reset().isOk());
  EXPECT_TRUE((*Env)->step(Actions).isOk());
  auto Obs = (*Env)->rawObservations({"Inst2vec"});
  EXPECT_TRUE(Obs.isOk());
  return Obs.isOk() ? (*Obs)[0].Doubles : std::vector<double>{};
}

TEST(ObservationDeltaE2E, RestartedPrivateServiceStillAnswersWithDeltas) {
  // The observation cache outlives a service restart, so the client's base
  // is still there after recovery: the moved state arrives as a delta.
  auto Env = core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  int Mem2Reg = actionIndex(**Env, "mem2reg");
  int Dce = actionIndex(**Env, "dce");
  ASSERT_GE(Mem2Reg, 0);
  ASSERT_GE(Dce, 0);
  ASSERT_TRUE((*Env)->step({Mem2Reg}, {"Inst2vec"}, {}).isOk());

  (*Env)->client().restartService();
  uint64_t DeltasBefore = (*Env)->deltaRepliesReceived();
  auto R = (*Env)->step({Dce}, {"Inst2vec"}, {});
  ASSERT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_EQ((*Env)->serviceRecoveries(), 1u);
  EXPECT_EQ((*Env)->deltaRepliesReceived(), DeltasBefore + 1);
  ASSERT_EQ(R->Observations.size(), 1u);
  EXPECT_EQ(*R->Observations[0].second.asDoubleList(),
            referenceInst2vec({Mem2Reg, Dce}));
}

TEST(ObservationDeltaE2E, ClearedBrokerCacheFallsBackToFullPayloads) {
  // Evicting the client's base (here: clearing the cache) leaves the
  // service nothing to diff against, so the reply is the full payload, and
  // it reconstructs byte-equal. With the base cached, the same dce step
  // arrives as a delta (RestartedPrivateServiceStillAnswersWithDeltas).
  runtime::BrokerOptions Opts;
  Opts.NumShards = 1;
  Opts.MonitorIntervalMs = 0;
  runtime::ServiceBroker Broker(Opts);
  core::CompilerEnvOptions EnvOpts;
  EnvOpts.CompilerName = "llvm";
  EnvOpts.BenchmarkUri = "benchmark://cbench-v1/crc32";
  EnvOpts.ObservationSpace = ""; // Only the requested Inst2vec travels.
  EnvOpts.RewardSpace = "";
  auto Env = core::CompilerEnv::attach(EnvOpts, Broker.shardService(0),
                                       Broker.shardTransport(0));
  ASSERT_TRUE(Env.isOk()) << Env.status().toString();
  ASSERT_TRUE((*Env)->reset().isOk());
  ASSERT_TRUE((*Env)->rawObservations({"Inst2vec"}).isOk());
  int Mem2Reg = actionIndex(**Env, "mem2reg");
  ASSERT_GE(Mem2Reg, 0);

  // With the base cached, the moved state is a delta.
  ASSERT_TRUE((*Env)->step({Mem2Reg}, {"Inst2vec"}, {}).isOk());
  EXPECT_EQ((*Env)->deltaRepliesReceived(), 1u);

  int Dce = actionIndex(**Env, "dce");
  ASSERT_GE(Dce, 0);
  Broker.observationCache().clear();
  auto R = (*Env)->step({Dce}, {"Inst2vec"}, {});
  ASSERT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_EQ((*Env)->deltaRepliesReceived(), 1u);
  ASSERT_EQ(R->Observations.size(), 1u);
  EXPECT_EQ(*R->Observations[0].second.asDoubleList(),
            referenceInst2vec({Mem2Reg, Dce}));
}

TEST(ObservationDeltaE2E, SurvivesCrashRecovery) {
  const std::vector<std::string> Spaces = {"Inst2vec", "Autophase"};
  // The fault-free reference runs before the process-wide plan is armed.
  core::MakeOptions Plain = plainLlvm("benchmark://cbench-v1/crc32");
  auto Fresh = core::make("llvm-v0", Plain);
  ASSERT_TRUE(Fresh.isOk());
  ASSERT_TRUE((*Fresh)->reset().isOk());
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE((*Fresh)->step({0}).isOk());
  auto Reference = (*Fresh)->rawObservations(Spaces);
  ASSERT_TRUE(Reference.isOk());

  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = fault::FaultKind::Crash,
                        .AfterHits = 6,
                        .MaxFires = 1});
  fault::ScopedFaultPlan Armed(Plan);
  auto Env = core::make("llvm-v0", Plain);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  ASSERT_TRUE((*Env)->rawObservations(Spaces).isOk());
  // Drive past the crash point; recovery replays and the content-addressed
  // bases stay coherent.
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE((*Env)->step({0}).isOk());
  EXPECT_GT((*Env)->serviceRecoveries(), 0u);
  auto Obs = (*Env)->rawObservations(Spaces);
  ASSERT_TRUE(Obs.isOk());

  for (size_t I = 0; I < Spaces.size(); ++I) {
    EXPECT_EQ((*Obs)[I].Ints, (*Reference)[I].Ints) << Spaces[I];
    EXPECT_EQ((*Obs)[I].Doubles, (*Reference)[I].Doubles) << Spaces[I];
  }
}

} // namespace
