//===- tests/views_test.cpp - Typed views API tests ------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The §III-B views frontend: typed SpaceInfo descriptors, checked
// ObservationValue accessors, epoch-keyed view caching (including across
// fork()), derived observation spaces, per-space reward bookkeeping, and
// the vectorized multi-space step.

#include "core/Registry.h"
#include "runtime/EnvPool.h"
#include "telemetry/MetricsRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::core;

namespace {

std::unique_ptr<CompilerEnv> makeLlvm(const std::string &Obs = "none",
                                      const std::string &Reward = "none") {
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = Obs;
  Opts.RewardSpace = Reward;
  auto Env = make("llvm-v0", Opts);
  EXPECT_TRUE(Env.isOk()) << Env.status().toString();
  return Env.takeValue();
}

/// RPC attempts across every client in the process; tests diff it across a
/// window that runs one env.
telemetry::Counter &rpcs() {
  return telemetry::MetricsRegistry::global().counter("cg_client_rpcs_total");
}

// -- Typed descriptors --------------------------------------------------------

TEST(Spaces, BackendPublishesTypedDescriptors) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());

  const SpaceInfo *Autophase =
      Env->spaceRegistry().observationSpace("Autophase");
  ASSERT_NE(Autophase, nullptr);
  EXPECT_EQ(Autophase->Type, service::ObservationType::Int64List);
  EXPECT_EQ(Autophase->Shape, (std::vector<int64_t>{56}));
  EXPECT_DOUBLE_EQ(Autophase->RangeMin, 0.0);
  EXPECT_TRUE(Autophase->Deterministic);
  EXPECT_FALSE(Autophase->PlatformDependent);
  EXPECT_FALSE(Autophase->Derived);

  const SpaceInfo *Runtime = Env->spaceRegistry().observationSpace("Runtime");
  ASSERT_NE(Runtime, nullptr);
  EXPECT_FALSE(Runtime->Deterministic);
  EXPECT_TRUE(Runtime->PlatformDependent);

  // The catalogue lists every backend space.
  std::vector<SpaceInfo> All = Env->observation().spaces();
  EXPECT_GE(All.size(), 12u);
  EXPECT_EQ(Env->spaceRegistry().observationSpace("NotASpace"), nullptr);
}

TEST(Spaces, TypedAccessorMismatchesAreErrors) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());

  auto Autophase = Env->observation()["Autophase"];
  ASSERT_TRUE(Autophase.isOk());
  EXPECT_TRUE(Autophase->asInt64List().isOk());
  EXPECT_EQ(Autophase->asString().status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(Autophase->asInt64().status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(Autophase->asScalar().status().code(),
            StatusCode::InvalidArgument);

  auto Ir = Env->observation()["Ir"];
  ASSERT_TRUE(Ir.isOk());
  EXPECT_TRUE(Ir->asString().isOk());
  EXPECT_EQ(Ir->asInt64List().status().code(), StatusCode::InvalidArgument);

  auto Count = Env->observation()["IrInstructionCount"];
  ASSERT_TRUE(Count.isOk());
  EXPECT_TRUE(Count->asInt64().isOk());
  EXPECT_TRUE(Count->asScalar().isOk());
  EXPECT_EQ(Count->asDouble().status().code(), StatusCode::InvalidArgument);
  EXPECT_EQ(*Count->asScalar(), static_cast<double>(*Count->asInt64()));
}

// -- View caching -------------------------------------------------------------

TEST(Views, RepeatQueriesAreCacheHitsUntilNextAction) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());

  uint64_t Before = rpcs().value();
  auto First = Env->observation()["InstCount"];
  ASSERT_TRUE(First.isOk());
  EXPECT_EQ(rpcs().value(), Before + 1);

  // Same state: served from the view cache, no RPC.
  uint64_t Hits = Env->observation().cacheHits();
  auto Second = Env->observation()["InstCount"];
  ASSERT_TRUE(Second.isOk());
  EXPECT_EQ(rpcs().value(), Before + 1);
  EXPECT_EQ(Env->observation().cacheHits(), Hits + 1);

  // An action advances the state epoch: the next query re-fetches.
  ASSERT_TRUE(Env->step(0).isOk());
  uint64_t AfterStep = rpcs().value();
  ASSERT_TRUE(Env->observation()["InstCount"].isOk());
  EXPECT_EQ(rpcs().value(), AfterStep + 1);
}

TEST(Views, PrefetchBatchesSpacesIntoOneRpc) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  uint64_t Before = rpcs().value();
  ASSERT_TRUE(
      Env->observation().prefetch({"Ir", "InstCount", "Autophase"}).isOk());
  EXPECT_EQ(rpcs().value(), Before + 1);
  // All three now come from the cache.
  ASSERT_TRUE(Env->observation()["Ir"].isOk());
  ASSERT_TRUE(Env->observation()["InstCount"].isOk());
  ASSERT_TRUE(Env->observation()["Autophase"].isOk());
  EXPECT_EQ(rpcs().value(), Before + 1);
}

TEST(Views, CacheSurvivesFork) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  ASSERT_TRUE(Env->step(0).isOk());
  auto Hash = Env->observation()["IrHash"];
  ASSERT_TRUE(Hash.isOk());

  auto Fork = Env->fork();
  ASSERT_TRUE(Fork.isOk()) << Fork.status().toString();
  // The clone's first query of a cached space must add zero RPCs.
  uint64_t Before = rpcs().value();
  auto ForkHash = (*Fork)->observation()["IrHash"];
  ASSERT_TRUE(ForkHash.isOk());
  EXPECT_EQ(rpcs().value(), Before);
  EXPECT_EQ(ForkHash->raw().Str, Hash->raw().Str);

  // Stepping the clone invalidates only the clone's cache.
  ASSERT_TRUE((*Fork)->step(1).isOk());
  auto ParentAgain = Env->observation()["IrHash"];
  ASSERT_TRUE(ParentAgain.isOk());
  EXPECT_EQ(ParentAgain->raw().Str, Hash->raw().Str);
}

// -- Derived observation spaces -----------------------------------------------

Status registerCodeSizeShare(Env &E) {
  SpaceInfo Info;
  Info.Name = "AutophaseShare";
  Info.Type = service::ObservationType::DoubleList;
  Info.Shape = {56};
  return E.observation().registerDerived(
      std::move(Info), {"Autophase", "IrInstructionCount"},
      [](ObservationView &V) -> StatusOr<service::Observation> {
        CG_ASSIGN_OR_RETURN(ObservationValue A, V.get("Autophase"));
        CG_ASSIGN_OR_RETURN(ObservationValue C,
                            V.get("IrInstructionCount"));
        double Total = std::max<double>(1.0, *C.asScalar());
        service::Observation Out;
        for (int64_t X : A.raw().Ints)
          Out.Doubles.push_back(static_cast<double>(X) / Total);
        return Out;
      });
}

TEST(Views, DerivedSpaceRegistrationAndUnregistration) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  ASSERT_TRUE(registerCodeSizeShare(*Env).isOk());

  // Duplicate names are rejected (backend and derived alike).
  SpaceInfo Dup;
  Dup.Name = "AutophaseShare";
  EXPECT_EQ(Env->observation()
                .registerDerived(Dup, {},
                                 [](ObservationView &)
                                     -> StatusOr<service::Observation> {
                                   return service::Observation{};
                                 })
                .code(),
            StatusCode::InvalidArgument);

  auto V = Env->observation()["AutophaseShare"];
  ASSERT_TRUE(V.isOk()) << V.status().toString();
  EXPECT_TRUE(V->info().Derived);
  auto Share = V->asDoubleList();
  ASSERT_TRUE(Share.isOk());
  ASSERT_EQ(Share->size(), 56u);
  for (double X : *Share)
    EXPECT_GE(X, 0.0);

  ASSERT_TRUE(Env->observation().unregisterDerived("AutophaseShare").isOk());
  EXPECT_EQ(Env->observation()["AutophaseShare"].status().code(),
            StatusCode::NotFound);
  EXPECT_EQ(Env->observation().unregisterDerived("AutophaseShare").code(),
            StatusCode::NotFound);
}

TEST(Views, DerivedSpaceRidesTheStepRpc) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  ASSERT_TRUE(registerCodeSizeShare(*Env).isOk());

  // The derived space's declared dependencies travel in the step RPC; the
  // client-side computation then runs entirely against the primed cache.
  uint64_t Before = rpcs().value();
  auto R = Env->step({0}, {"AutophaseShare"});
  ASSERT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_EQ(rpcs().value(), Before + 1);
  ASSERT_EQ(R->Observations.size(), 1u);
  EXPECT_EQ(R->Observations[0].first, "AutophaseShare");
  EXPECT_TRUE(R->Observations[0].second.asDoubleList().isOk());
}

TEST(Views, DerivedSpaceCycleIsAnError) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  SpaceInfo Info;
  Info.Name = "Ouroboros";
  Info.Type = service::ObservationType::Int64Value;
  ASSERT_TRUE(Env->observation()
                  .registerDerived(Info, {"Ouroboros"},
                                   [](ObservationView &V)
                                       -> StatusOr<service::Observation> {
                                     CG_ASSIGN_OR_RETURN(ObservationValue X,
                                                         V.get("Ouroboros"));
                                     return X.raw();
                                   })
                  .isOk());
  auto V = Env->observation()["Ouroboros"];
  ASSERT_FALSE(V.isOk());
  EXPECT_EQ(V.status().code(), StatusCode::Internal);
}

// -- Reward view --------------------------------------------------------------

TEST(Views, RewardViewPaysDeltaSincePreviousQuery) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());

  // First query primes the space: delta rewards pay zero.
  auto First = Env->reward()["IrInstructionCount"];
  ASSERT_TRUE(First.isOk()) << First.status().toString();
  EXPECT_DOUBLE_EQ(*First, 0.0);

  int Mem2Reg = -1;
  const auto &Names = Env->actionSpace().ActionNames;
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == "mem2reg")
      Mem2Reg = static_cast<int>(I);
  auto Before = Env->observation()["IrInstructionCount"];
  ASSERT_TRUE(Env->step(Mem2Reg).isOk());
  auto After = Env->observation()["IrInstructionCount"];

  auto Paid = Env->reward()["IrInstructionCount"];
  ASSERT_TRUE(Paid.isOk());
  EXPECT_DOUBLE_EQ(*Paid, static_cast<double>(*Before->asInt64() -
                                              *After->asInt64()));
  // Immediately re-querying the same state pays zero again.
  EXPECT_DOUBLE_EQ(*Env->reward()["IrInstructionCount"], 0.0);

  EXPECT_EQ(Env->reward()["NotAReward"].status().code(),
            StatusCode::NotFound);
  EXPECT_FALSE(Env->reward().spaces().empty());
}

TEST(Views, RewardRegistrationValidatesAndUnregisters) {
  auto Env = makeLlvm();
  RewardSpec Nameless;
  EXPECT_EQ(Env->reward().registerReward(Nameless).code(),
            StatusCode::InvalidArgument);

  RewardSpec Dup;
  Dup.Name = "IrInstructionCount"; // Collides with a builtin.
  Dup.MetricObservation = "IrInstructionCount";
  EXPECT_EQ(Env->reward().registerReward(Dup).code(),
            StatusCode::InvalidArgument);

  RewardSpec Ok;
  Ok.Name = "MyReward";
  Ok.MetricObservation = "IrInstructionCount";
  ASSERT_TRUE(Env->reward().registerReward(Ok).isOk());
  ASSERT_TRUE(Env->setRewardSpace("MyReward").isOk());
  ASSERT_TRUE(Env->setRewardSpace("IrInstructionCount").isOk());
  ASSERT_TRUE(Env->reward().unregisterReward("MyReward").isOk());
  EXPECT_EQ(Env->setRewardSpace("MyReward").code(), StatusCode::NotFound);
  // Builtins cannot be unregistered.
  EXPECT_EQ(Env->reward().unregisterReward("IrInstructionCount").code(),
            StatusCode::InvalidArgument);
}

TEST(Views, FailedDerivedDemuxDoesNotDesyncEpisodeHistory) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  SpaceInfo Info;
  Info.Name = "Broken";
  Info.Type = service::ObservationType::Int64Value;
  ASSERT_TRUE(Env->observation()
                  .registerDerived(Info, {},
                                   [](ObservationView &)
                                       -> StatusOr<service::Observation> {
                                     return internalError("boom");
                                   })
                  .isOk());
  // The step RPC succeeds (the backend applies the action) before the
  // derived demux fails: the action must still be recorded, or recovery
  // replay and state() would desync from the live session.
  auto R = Env->step({0}, {"Broken"});
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(Env->episodeLength(), 1u);
  EXPECT_TRUE(Env->step(1).isOk());
  EXPECT_EQ(Env->episodeLength(), 2u);
}

TEST(Views, FailedRewardSwitchLeavesPreviousSpaceActive) {
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://chstone-v0/sha"; // Not runnable.
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "IrInstructionCount";
  auto Env = make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  // Runtime metrics cannot be primed on a non-runnable benchmark: the
  // switch must fail without committing, leaving the env steppable.
  auto S = (*Env)->setRewardSpace("RuntimeO3");
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ((*Env)->rewardSpace(), "IrInstructionCount");
  EXPECT_TRUE((*Env)->step(0).isOk());
}

TEST(Views, AbsoluteRewardSpacePaysNothingAtReset) {
  // loop_tool's default reward is the absolute FLOPs measurement: reset()
  // must prime it without paying the initial measurement into the episode.
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://loop_tool-v0/16384";
  auto Env = make("loop_tool-v0", Opts);
  ASSERT_TRUE(Env.isOk()) << Env.status().toString();
  ASSERT_TRUE((*Env)->reset().isOk());
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), 0.0);
  auto R = (*Env)->step(3); // thread: reward = measured FLOPs.
  ASSERT_TRUE(R.isOk());
  EXPECT_GT(R->Reward, 0.0);
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), R->Reward);
}

TEST(Views, UnregisteringActiveRewardFailsStepWithCure) {
  auto Env = makeLlvm();
  RewardSpec Spec;
  Spec.Name = "Ephemeral";
  Spec.MetricObservation = "IrInstructionCount";
  ASSERT_TRUE(Env->reward().registerReward(Spec).isOk());
  ASSERT_TRUE(Env->setRewardSpace("Ephemeral").isOk());
  ASSERT_TRUE(Env->reset().isOk());
  ASSERT_TRUE(Env->reward().unregisterReward("Ephemeral").isOk());
  auto R = Env->step(0);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::FailedPrecondition);
  EXPECT_NE(R.status().message().find("setRewardSpace"), std::string::npos);
  // The cure works.
  ASSERT_TRUE(Env->setRewardSpace("IrInstructionCount").isOk());
  EXPECT_TRUE(Env->step(0).isOk());
}

// -- Vectorized multi-space step ----------------------------------------------

TEST(Views, EnvPoolStepBatchCarriesRequestedSpaces) {
  runtime::EnvPoolOptions Opts;
  Opts.EnvId = "llvm-v0";
  Opts.Make.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.Make.ObservationSpace = "none";
  Opts.Make.RewardSpace = "none";
  Opts.NumWorkers = 2;
  auto Pool = runtime::EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  ASSERT_TRUE((*Pool)->resetAll().isOk());

  auto Results = (*Pool)->stepBatch({{0}, {1}}, {"InstCount", "Autophase"},
                                    {"IrInstructionCount"});
  ASSERT_TRUE(Results.isOk()) << Results.status().toString();
  ASSERT_EQ(Results->size(), 2u);
  for (const core::StepResult &R : *Results) {
    ASSERT_EQ(R.Observations.size(), 2u);
    EXPECT_TRUE(R.Observations[0].second.asInt64List().isOk());
    EXPECT_TRUE(R.Observations[1].second.asInt64List().isOk());
    ASSERT_EQ(R.Rewards.size(), 1u);
    EXPECT_EQ(R.Rewards[0].first, "IrInstructionCount");
  }
}

} // namespace
