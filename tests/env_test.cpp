//===- tests/env_test.cpp - End-to-end environment tests -------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The Listing-1 loop and every frontend feature over the real RPC stack:
// make/reset/step/observe, rewards, batching, laziness, fork, state
// serialization, and writeIr.

#include "core/Registry.h"
#include "core/Wrappers.h"
#include "telemetry/MetricsRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace compiler_gym;
using namespace compiler_gym::core;

namespace {

std::unique_ptr<CompilerEnv> makeLlvm(const std::string &Benchmark =
                                          "benchmark://cbench-v1/crc32") {
  MakeOptions Opts;
  Opts.Benchmark = Benchmark;
  Opts.ObservationSpace = "Autophase";
  Opts.RewardSpace = "IrInstructionCount";
  auto Env = make("llvm-v0", Opts);
  EXPECT_TRUE(Env.isOk()) << Env.status().toString();
  return Env.takeValue();
}

/// RPC attempts across every client in the process; tests diff it across a
/// window that runs one env.
telemetry::Counter &rpcs() {
  return telemetry::MetricsRegistry::global().counter("cg_client_rpcs_total");
}

TEST(Env, MakeUnknownEnvFails) {
  auto Env = make("not-an-env-v0");
  ASSERT_FALSE(Env.isOk());
  EXPECT_EQ(Env.status().code(), StatusCode::NotFound);
}

TEST(Env, ResetReturnsAutophaseObservation) {
  auto Env = makeLlvm();
  auto Obs = Env->reset();
  ASSERT_TRUE(Obs.isOk()) << Obs.status().toString();
  EXPECT_EQ(Obs->Ints.size(), 56u);
}

TEST(Env, StepBeforeResetFails) {
  auto Env = makeLlvm();
  auto R = Env->step(0);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::FailedPrecondition);
}

TEST(Env, ActionSpaceIsTheDefaultPassList) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  EXPECT_GT(Env->actionSpace().size(), 40u);
  // Quarantined nondeterministic pass must not be an action.
  for (const std::string &Name : Env->actionSpace().ActionNames)
    EXPECT_NE(Name, "gvn-sink");
}

TEST(Env, ListingOneInteractionLoop) {
  auto Env = makeLlvm("benchmark://cbench-v1/qsort");
  ASSERT_TRUE(Env->reset().isOk());
  Rng Gen(7);
  double Cumulative = 0.0;
  for (int I = 0; I < 50; ++I) {
    int Action = static_cast<int>(Gen.bounded(Env->actionSpace().size()));
    auto R = Env->step(Action);
    ASSERT_TRUE(R.isOk()) << R.status().toString();
    Cumulative += R->Reward;
    EXPECT_FALSE(R->Done); // Phase ordering has no terminal state.
  }
  EXPECT_NEAR(Cumulative, Env->episodeReward(), 1e-9);
  EXPECT_EQ(Env->episodeLength(), 50u);
}

TEST(Env, RewardIsInstructionCountDelta) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  auto Before = Env->observation()["IrInstructionCount"];
  ASSERT_TRUE(Before.isOk());
  // mem2reg strictly shrinks -O0-style code.
  int Mem2Reg = -1;
  const auto &Names = Env->actionSpace().ActionNames;
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == "mem2reg")
      Mem2Reg = static_cast<int>(I);
  ASSERT_GE(Mem2Reg, 0);
  auto R = Env->step(Mem2Reg);
  ASSERT_TRUE(R.isOk());
  auto After = Env->observation()["IrInstructionCount"];
  ASSERT_TRUE(After.isOk());
  EXPECT_GT(R->Reward, 0.0);
  EXPECT_EQ(static_cast<int64_t>(R->Reward),
            *Before->asInt64() - *After->asInt64());
}

TEST(Env, BatchedStepMatchesSequentialFinalState) {
  std::vector<int> Actions = {0, 5, 9, 2, 14};
  // The sequential control runs in its own RPC window, then the batch.
  uint64_t Before = rpcs().value();
  auto EnvA = makeLlvm();
  ASSERT_TRUE(EnvA->reset().isOk());
  for (int A : Actions)
    ASSERT_TRUE(EnvA->step(A).isOk());
  auto HashA = EnvA->observation()["IrHash"];
  const uint64_t RpcsA = rpcs().value() - Before;

  Before = rpcs().value();
  auto EnvB = makeLlvm();
  ASSERT_TRUE(EnvB->reset().isOk());
  ASSERT_TRUE(EnvB->step(Actions).isOk()); // One batched RPC.
  auto HashB = EnvB->observation()["IrHash"];
  const uint64_t RpcsB = rpcs().value() - Before;
  ASSERT_TRUE(HashA.isOk());
  ASSERT_TRUE(HashB.isOk());
  EXPECT_EQ(*HashA->asString(), *HashB->asString());
  // Batched used fewer RPCs.
  EXPECT_LT(RpcsB, RpcsA);
}

TEST(Env, LazyObservationSpaces) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  for (const char *Space : {"Ir", "InstCount", "Autophase", "Inst2vec",
                            "Programl", "IrInstructionCount",
                            "ObjectTextSizeBytes"}) {
    auto Obs = Env->observation()[Space];
    EXPECT_TRUE(Obs.isOk()) << Space << ": " << Obs.status().toString();
  }
  auto Bad = Env->observation()["NotASpace"];
  ASSERT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), StatusCode::NotFound);
}

TEST(Env, ForkProducesIndependentCopies) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  ASSERT_TRUE(Env->step(3).isOk());

  auto Forked = Env->fork();
  ASSERT_TRUE(Forked.isOk()) << Forked.status().toString();
  auto HashBase = Env->observation()["IrHash"];
  auto HashFork = (*Forked)->observation()["IrHash"];
  ASSERT_TRUE(HashBase.isOk());
  ASSERT_TRUE(HashFork.isOk());
  EXPECT_EQ(HashBase->raw().Str, HashFork->raw().Str);

  // Stepping the fork must not disturb the original.
  int Mem2Reg = -1;
  const auto &Names = Env->actionSpace().ActionNames;
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == "mem2reg")
      Mem2Reg = static_cast<int>(I);
  ASSERT_TRUE((*Forked)->step(Mem2Reg).isOk());
  auto HashBase2 = Env->observation()["IrHash"];
  auto HashFork2 = (*Forked)->observation()["IrHash"];
  EXPECT_EQ(HashBase->raw().Str, HashBase2->raw().Str);
  EXPECT_NE(HashFork2->raw().Str, HashBase2->raw().Str);
}

TEST(Env, ForkInheritsEpisodeState) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  ASSERT_TRUE(Env->step(1).isOk());
  ASSERT_TRUE(Env->step(2).isOk());
  auto Forked = Env->fork();
  ASSERT_TRUE(Forked.isOk());
  EXPECT_EQ((*Forked)->state().Actions, Env->state().Actions);
  EXPECT_DOUBLE_EQ((*Forked)->episodeReward(), Env->episodeReward());
}

TEST(Env, StateSerializationRoundTrips) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  ASSERT_TRUE(Env->step(std::vector<int>{4, 8, 15}).isOk());
  EnvState State = Env->state();
  auto Restored = EnvState::deserialize(State.serialize());
  ASSERT_TRUE(Restored.isOk()) << Restored.status().toString();
  EXPECT_EQ(*Restored, State);
}

TEST(Env, WriteIrProducesParsableText) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  std::string Path = ::testing::TempDir() + "/cg_env_test_out.ir";
  ASSERT_TRUE(Env->writeIr(Path).isOk());
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string First;
  std::getline(In, First);
  EXPECT_EQ(First.rfind("module", 0), 0u);
  std::remove(Path.c_str());
}

TEST(Env, RuntimeRewardOnlyForRunnableBenchmarks) {
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://chstone-v0/sha"; // Not runnable.
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  auto Env = make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  auto Runtime = (*Env)->observation()["Runtime"];
  ASSERT_FALSE(Runtime.isOk());
  EXPECT_EQ(Runtime.status().code(), StatusCode::FailedPrecondition);

  auto Runnable = makeLlvm("benchmark://cbench-v1/crc32");
  ASSERT_TRUE(Runnable->reset().isOk());
  auto Seconds = Runnable->observation()["Runtime"];
  ASSERT_TRUE(Seconds.isOk()) << Seconds.status().toString();
  EXPECT_GT(*Seconds->asDouble(), 0.0);
}

TEST(Env, FailedStepLeavesNoPhantomAction) {
  // The service applies mem2reg before the Runtime observation fails on a
  // non-runnable benchmark. The env commits nothing, so the live session
  // must not keep the action either: replaying the recorded history (as a
  // crash recovery does) has to reach the live state.
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://chstone-v0/sha"; // Not runnable.
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "IrInstructionCount";
  auto Env = make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  auto Committed = (*Env)->rawObservations({"IrHash"});
  ASSERT_TRUE(Committed.isOk());
  const auto &Names = (*Env)->actionSpace().ActionNames;
  int Mem2Reg = static_cast<int>(
      std::find(Names.begin(), Names.end(), "mem2reg") - Names.begin());
  ASSERT_LT(static_cast<size_t>(Mem2Reg), Names.size());

  auto R = (*Env)->step({Mem2Reg}, {"Runtime"}, {});
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::FailedPrecondition);
  EXPECT_EQ((*Env)->episodeLength(), 0u);
  auto Live = (*Env)->rawObservations({"IrHash"});
  ASSERT_TRUE(Live.isOk()) << Live.status().toString();
  EXPECT_EQ((*Live)[0].Str, (*Committed)[0].Str);

  // The action itself is fine: stepped without Runtime it commits.
  ASSERT_TRUE((*Env)->step(Mem2Reg).isOk());
  EXPECT_EQ((*Env)->episodeLength(), 1u);
  auto Moved = (*Env)->rawObservations({"IrHash"});
  ASSERT_TRUE(Moved.isOk());
  EXPECT_NE((*Moved)[0].Str, (*Committed)[0].Str);
}

TEST(Env, ScaledRewardReachesOneAtOzParity) {
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/bitcount";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "IrInstructionCountOz";
  auto Env = make("llvm-v0", Opts);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());
  // Apply the -Oz pipeline manually through actions; cumulative scaled
  // reward should approach ~1.0 (parity with -Oz).
  const auto &Names = (*Env)->actionSpace().ActionNames;
  auto indexOf = [&](const std::string &Name) {
    for (size_t I = 0; I < Names.size(); ++I)
      if (Names[I] == Name)
        return static_cast<int>(I);
    return -1;
  };
  for (int Round = 0; Round < 3; ++Round)
    for (const char *Pass :
         {"mem2reg", "instcombine", "simplifycfg", "sccp", "early-cse",
          "gvn", "loop-simplify", "licm", "loop-delete", "dse-local",
          "store-forward", "redundant-load-elim", "adce", "phi-simplify",
          "simplifycfg", "global-dce"}) {
      int Idx = indexOf(Pass);
      ASSERT_GE(Idx, 0) << Pass;
      ASSERT_TRUE((*Env)->step(Idx).isOk());
    }
  EXPECT_GT((*Env)->episodeReward(), 0.9);
}

TEST(Env, MultiSpaceStepIsOneRpc) {
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  uint64_t Before = rpcs().value();
  // Three observation spaces plus two reward spaces (the active one and an
  // explicit scaled one) all ride the single step RPC.
  auto R = Env->step({0}, {"InstCount", "Autophase", "IrInstructionCount"},
                     {"IrInstructionCount", "IrInstructionCountOz"});
  ASSERT_TRUE(R.isOk()) << R.status().toString();
  EXPECT_EQ(rpcs().value(), Before + 1);

  ASSERT_EQ(R->Observations.size(), 3u);
  EXPECT_EQ(R->Observations[0].first, "InstCount");
  EXPECT_TRUE(R->Observations[0].second.asInt64List().isOk());
  EXPECT_EQ(R->Observations[1].first, "Autophase");
  EXPECT_EQ(R->Observations[1].second.asInt64List()->size(), 56u);
  EXPECT_EQ(R->Observations[2].first, "IrInstructionCount");
  EXPECT_TRUE(R->Observations[2].second.asInt64().isOk());
  ASSERT_EQ(R->Rewards.size(), 2u);
  EXPECT_EQ(R->Rewards[0].first, "IrInstructionCount");
  // The active reward space and its explicit request settle identically.
  EXPECT_DOUBLE_EQ(R->Rewards[0].second, R->Reward);

  // Post-step view queries of the requested spaces are cache hits: zero
  // additional RPCs.
  uint64_t AfterStep = rpcs().value();
  ASSERT_TRUE(Env->observation()["Autophase"].isOk());
  ASSERT_TRUE(Env->observation()["IrInstructionCount"].isOk());
  EXPECT_EQ(rpcs().value(), AfterStep);
}

TEST(Env, SequentialObservesCostMoreRpcsThanMultiSpaceStep) {
  auto EnvA = makeLlvm();
  auto EnvB = makeLlvm();
  ASSERT_TRUE(EnvA->reset().isOk());
  ASSERT_TRUE(EnvB->reset().isOk());
  const std::vector<std::string> Spaces = {"InstCount", "Autophase", "Ir"};
  uint64_t BeforeA = rpcs().value();
  ASSERT_TRUE(EnvA->step({0}, Spaces).isOk());
  uint64_t CostA = rpcs().value() - BeforeA;

  uint64_t BeforeB = rpcs().value();
  ASSERT_TRUE(EnvB->step(0).isOk());
  for (const std::string &S : Spaces)
    ASSERT_TRUE(EnvB->rawObservations({S}).isOk());
  uint64_t CostB = rpcs().value() - BeforeB;
  EXPECT_EQ(CostA, 1u);
  EXPECT_EQ(CostB, 1u + Spaces.size());
}

TEST(Env, RegisteredDerivedRewardDrivesFullEpisode) {
  MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";
  auto EnvOr = make("llvm-v0", Opts);
  ASSERT_TRUE(EnvOr.isOk());
  CompilerEnv &Env = **EnvOr;

  // A user reward: fraction of the episode-initial instruction count
  // removed by each step. Registered entirely client-side.
  RewardSpec Spec;
  Spec.Name = "InstCountFractionRemoved";
  Spec.MetricObservation = "IrInstructionCount";
  Spec.Combiner = [](double Current, double Previous, double Initial,
                     double) { return (Previous - Current) / Initial; };
  ASSERT_TRUE(Env.reward().registerReward(Spec).isOk());
  ASSERT_TRUE(Env.setRewardSpace("InstCountFractionRemoved").isOk());

  ASSERT_TRUE(Env.reset().isOk());
  auto Initial = Env.observation()["IrInstructionCount"];
  ASSERT_TRUE(Initial.isOk());

  int Mem2Reg = -1;
  const auto &Names = Env.actionSpace().ActionNames;
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == "mem2reg")
      Mem2Reg = static_cast<int>(I);
  ASSERT_GE(Mem2Reg, 0);

  double Cumulative = 0.0;
  for (int S = 0; S < 10; ++S) {
    auto R = Env.step(S == 0 ? Mem2Reg : S);
    ASSERT_TRUE(R.isOk()) << R.status().toString();
    Cumulative += R->Reward;
  }
  EXPECT_NEAR(Cumulative, Env.episodeReward(), 1e-9);
  // Cumulative telescopes to (initial - final) / initial.
  auto Final = Env.observation()["IrInstructionCount"];
  ASSERT_TRUE(Final.isOk());
  double Expected =
      static_cast<double>(*Initial->asInt64() - *Final->asInt64()) /
      static_cast<double>(*Initial->asInt64());
  EXPECT_NEAR(Env.episodeReward(), Expected, 1e-9);
  EXPECT_GT(Env.episodeReward(), 0.0); // mem2reg shrank the module.
}

TEST(Env, SetRewardSpaceMidEpisodeReprimesBaseline) {
  auto Env = makeLlvm(); // Active: IrInstructionCount (delta).
  ASSERT_TRUE(Env->reset().isOk());
  int Mem2Reg = -1;
  const auto &Names = Env->actionSpace().ActionNames;
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == "mem2reg")
      Mem2Reg = static_cast<int>(I);
  ASSERT_TRUE(Env->step(Mem2Reg).isOk());

  // Switch to a metric with a very different magnitude mid-episode. The
  // switch must re-prime from a fresh ObjectTextSizeBytes observation —
  // without it, the next delta would be computed against the *instruction
  // count* metric's last value.
  ASSERT_TRUE(Env->setRewardSpace("ObjectTextSizeBytes").isOk());
  auto SizeNow = Env->observation()["ObjectTextSizeBytes"];
  ASSERT_TRUE(SizeNow.isOk());

  // A pass that does not change this module's code: reward must be ~0, not
  // the (instcount - textsize) garbage the unprimed path would pay.
  auto R = Env->step(Mem2Reg); // Second mem2reg is a no-op.
  ASSERT_TRUE(R.isOk());
  auto SizeAfter = Env->observation()["ObjectTextSizeBytes"];
  double Expected = static_cast<double>(*SizeNow->asInt64()) -
                    static_cast<double>(*SizeAfter->asInt64());
  EXPECT_DOUBLE_EQ(R->Reward, Expected);

  // Switching back to a previously-used space re-primes it too.
  ASSERT_TRUE(Env->setRewardSpace("IrInstructionCount").isOk());
  auto R2 = Env->step(Mem2Reg);
  ASSERT_TRUE(R2.isOk());
  EXPECT_DOUBLE_EQ(R2->Reward, 0.0); // No change since the re-prime.
}

TEST(Env, BenchmarkGetterReportsAppliedNotPendingUri) {
  auto Env = makeLlvm("benchmark://cbench-v1/crc32");
  ASSERT_TRUE(Env->reset().isOk());
  EXPECT_EQ(Env->benchmark(), "benchmark://cbench-v1/crc32");

  Env->setBenchmark("benchmark://cbench-v1/sha");
  // The switch is pending until reset(): the getter keeps reporting the
  // URI this episode actually runs on.
  EXPECT_EQ(Env->benchmark(), "benchmark://cbench-v1/crc32");
  EXPECT_EQ(Env->pendingBenchmark(), "benchmark://cbench-v1/sha");
  EXPECT_EQ(Env->state().BenchmarkUri, "benchmark://cbench-v1/crc32");

  ASSERT_TRUE(Env->reset().isOk());
  EXPECT_EQ(Env->benchmark(), "benchmark://cbench-v1/sha");
  EXPECT_EQ(Env->pendingBenchmark(), "benchmark://cbench-v1/sha");
}

TEST(Env, EnvStateRoundTripsAllSixFields) {
  EnvState State;
  State.EnvId = "llvm-v0";
  State.BenchmarkUri = "benchmark://cbench-v1/crc32";
  State.RewardSpace = "IrInstructionCount";
  State.ObservationSpace = "Autophase";
  State.Actions = {3, 1, 4, 1, 5};
  State.CumulativeReward = -2.25;
  auto Restored = EnvState::deserialize(State.serialize());
  ASSERT_TRUE(Restored.isOk()) << Restored.status().toString();
  EXPECT_EQ(*Restored, State);
  // An empty action history round-trips too (a fresh episode).
  State.Actions.clear();
  State.CumulativeReward = 0.0;
  Restored = EnvState::deserialize(State.serialize());
  ASSERT_TRUE(Restored.isOk()) << Restored.status().toString();
  EXPECT_EQ(*Restored, State);
}

TEST(Env, EnvStateRejectsMalformedLines) {
  EXPECT_FALSE(EnvState::deserialize("only|three|fields").isOk());
  // The 5-field line that predates the observation-space field.
  EXPECT_FALSE(EnvState::deserialize(
                   "llvm-v0|benchmark://cbench-v1/qsort|IrInstructionCount|"
                   "1.5|4,8,15")
                   .isOk());
  EXPECT_FALSE(EnvState::deserialize(
                   "llvm-v0|benchmark://x/y|IrInstructionCount|Autophase|1.0|"
                   "x,y")
                   .isOk());
}

TEST(Wrappers, TimeLimitEndsEpisode) {
  auto Env = makeLlvm();
  TimeLimit Limited(std::move(Env), 3);
  ASSERT_TRUE(Limited.reset().isOk());
  ASSERT_FALSE(Limited.step(0)->Done);
  ASSERT_FALSE(Limited.step(1)->Done);
  EXPECT_TRUE(Limited.step(2)->Done);
}

TEST(Wrappers, ActionSubsetRemapsActions) {
  auto Env = makeLlvm();
  CompilerEnv *Raw = Env.get();
  ASSERT_TRUE(Env->reset().isOk());
  ActionSubset Subset(std::move(Env), {7, 2, 11});
  EXPECT_EQ(Subset.actionSpace().size(), 3u);
  ASSERT_TRUE(Subset.step(0).isOk());
  EXPECT_EQ(Raw->state().Actions, (std::vector<int>{7}));
  auto Bad = Subset.step(3);
  ASSERT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), StatusCode::OutOfRange);
}

TEST(Wrappers, ObservationHistogramAppendsCounts) {
  auto Env = makeLlvm();
  size_t NumActions = 0;
  {
    ASSERT_TRUE(Env->reset().isOk());
    NumActions = Env->actionSpace().size();
  }
  ObservationHistogram WithHist(std::move(Env));
  auto Obs = WithHist.reset();
  ASSERT_TRUE(Obs.isOk());
  EXPECT_EQ(Obs->Ints.size(), 56u + NumActions);
  auto R = WithHist.step(0);
  ASSERT_TRUE(R.isOk());
  ASSERT_EQ(R->Obs.Ints.size(), 56u + NumActions);
  EXPECT_EQ(R->Obs.Ints[56], 100); // 100% of actions are action 0.
}

TEST(Wrappers, CycleOverBenchmarksRotates) {
  auto Wrapped = makeLlvm();
  CompilerEnv *Raw = Wrapped.get();
  CycleOverBenchmarks Cycle(
      std::move(Wrapped),
      {"benchmark://cbench-v1/crc32", "benchmark://cbench-v1/sha"},
      [](Env &E, const std::string &Uri) {
        static_cast<CompilerEnv &>(E).setBenchmark(Uri);
      });
  ASSERT_TRUE(Cycle.reset().isOk());
  EXPECT_EQ(Raw->benchmark(), "benchmark://cbench-v1/crc32");
  ASSERT_TRUE(Cycle.reset().isOk());
  EXPECT_EQ(Raw->benchmark(), "benchmark://cbench-v1/sha");
  ASSERT_TRUE(Cycle.reset().isOk());
  EXPECT_EQ(Raw->benchmark(), "benchmark://cbench-v1/crc32");
}

} // namespace
