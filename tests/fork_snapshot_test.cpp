//===- tests/fork_snapshot_test.cpp - COW fork & snapshot recovery -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The copy-on-write fork/recovery subsystem end-to-end: Module::share()
// structural sharing and pass-layer COW isolation, the content-addressed
// SnapshotStore, fork-vs-replay equivalence along divergent action
// sequences, replay-free crash recovery (asserted through the
// cg_env_replayed_actions_total counter) and its replay fallback when the
// snapshot is gone, and EnvPool candidate fan-out.
// The file runs under both the ASan (COW isolation: a leaked share is a
// use-after-free factory) and TSan (concurrent rebases from one parent)
// CI jobs.

#include "core/Registry.h"
#include "fault/FaultRegistry.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Snapshot.h"
#include "passes/PassManager.h"
#include "runtime/EnvPool.h"
#include "telemetry/MetricsRegistry.h"

#include <gtest/gtest.h>

using namespace compiler_gym;
using namespace compiler_gym::ir;

namespace {

std::unique_ptr<Module> parse(const std::string &Text) {
  auto M = parseModule(Text);
  EXPECT_TRUE(M.isOk()) << M.status().toString();
  return M.isOk() ? M.takeValue() : nullptr;
}

/// A module constfold will definitely rewrite.
std::unique_ptr<Module> foldableModule() {
  return parse(R"(module "t"
func @main() -> i64 {
entry:
  %a = add i64 i64 2, i64 3
  %b = mul i64 i64 %a, i64 4
  %c = sub i64 i64 %b, i64 20
  ret i64 %c
}
)");
}

uint64_t replayedActions() {
  return telemetry::MetricsRegistry::global()
      .counter("cg_env_replayed_actions_total")
      .value();
}

uint64_t snapshotHits() {
  return telemetry::MetricsRegistry::global()
      .counter("cg_snapshot_store_hits_total", {{"outcome", "hit"}})
      .value();
}

uint64_t snapshotRestores() {
  return telemetry::MetricsRegistry::global()
      .histogram("cg_snapshot_restore_us")
      .count();
}

uint64_t recoveries() {
  return telemetry::MetricsRegistry::global()
      .counter("cg_env_recoveries_total")
      .value();
}

// -- Module structural sharing -------------------------------------------------

TEST(ModuleShare, ShareAliasesFunctionPayloads) {
  auto M = foldableModule();
  auto S = M->share();
  EXPECT_EQ(printModule(*M), printModule(*S));
  EXPECT_EQ(M->hash(), S->hash());
  ASSERT_EQ(S->functions().size(), M->functions().size());
  // The same payload object, not a deep copy — and both sides know it.
  EXPECT_EQ(S->functions()[0].get(), M->functions()[0].get());
  EXPECT_TRUE(M->isFunctionShared(0));
  EXPECT_TRUE(S->isFunctionShared(0));
}

TEST(ModuleShare, PassMutationCowIsolatesParentAndSiblings) {
  auto M = foldableModule();
  const std::string Before = printModule(*M);
  auto S1 = M->share();
  auto S2 = M->share();
  // Mutating S1 through the pass layer copy-on-writes its function; the
  // parent and the sibling share must be bit-identical afterwards.
  auto Changed = passes::runPass(*S1, "constfold");
  ASSERT_TRUE(Changed.isOk());
  EXPECT_TRUE(*Changed);
  EXPECT_NE(printModule(*S1), Before);
  EXPECT_EQ(printModule(*M), Before);
  EXPECT_EQ(printModule(*S2), Before);
  // S1 detached its copy; M and S2 still alias the original payload.
  EXPECT_NE(S1->functions()[0].get(), M->functions()[0].get());
  EXPECT_EQ(S2->functions()[0].get(), M->functions()[0].get());
  // A snapshot takes the changed copy itself: freeze() never clones.
  EXPECT_EQ(S1->freeze()->functions()[0].get(), S1->functions()[0].get());
}

TEST(ModuleShare, NoopPassKeepsOriginalAsFrozenTwin) {
  auto M = foldableModule();
  auto S = M->share();
  // mem2reg has nothing to do here. The pass layer keeps its copy, so
  // later passes run on it in place, and the untouched original stands in
  // for the copy in a snapshot: a no-op pass puts no copy into one.
  auto Changed = passes::runPass(*S, "mem2reg");
  ASSERT_TRUE(Changed.isOk());
  EXPECT_FALSE(*Changed);
  EXPECT_EQ(printModule(*S), printModule(*M));
  EXPECT_FALSE(S->isFunctionShared(0));
  EXPECT_EQ(S->freeze()->functions()[0].get(), M->functions()[0].get());
}

// -- SnapshotStore -------------------------------------------------------------

TEST(SnapshotStore, RoundTripsFrozenShares) {
  SnapshotStore Store(/*MaxEntries=*/8, /*MaxBytes=*/1 << 20);
  auto M = foldableModule();
  Store.put(42, M->share());
  auto Snap = Store.get(42);
  ASSERT_NE(Snap, nullptr);
  EXPECT_EQ(printModule(*Snap), printModule(*M));
  // A restore is a share of the frozen module: mutating it must not
  // disturb the stored snapshot.
  auto Restored = Snap->share();
  ASSERT_TRUE(passes::runPass(*Restored, "constfold").isOk());
  EXPECT_EQ(printModule(*Store.get(42)), printModule(*M));
  EXPECT_EQ(Store.get(7), nullptr);
}

TEST(SnapshotStore, LruEvictsOldestEntry) {
  SnapshotStore Store(/*MaxEntries=*/2, /*MaxBytes=*/1 << 20);
  auto M = foldableModule();
  Store.put(1, M->share());
  Store.put(2, M->share());
  ASSERT_NE(Store.get(1), nullptr); // Refresh 1: 2 is now oldest.
  Store.put(3, M->share());
  EXPECT_EQ(Store.entries(), 2u);
  EXPECT_NE(Store.get(1), nullptr);
  EXPECT_EQ(Store.get(2), nullptr);
  EXPECT_NE(Store.get(3), nullptr);
}

// -- Environment-level fork ----------------------------------------------------

std::unique_ptr<core::CompilerEnv> makeLlvm(const std::string &Obs = "none") {
  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = Obs;
  Opts.RewardSpace = "IrInstructionCount";
  auto Env = core::make("llvm-v0", Opts);
  EXPECT_TRUE(Env.isOk()) << Env.status().toString();
  return Env.takeValue();
}

std::string irHash(core::CompilerEnv &E) {
  auto H = E.observation()["IrHash"];
  EXPECT_TRUE(H.isOk()) << H.status().toString();
  return H.isOk() ? H->raw().Str : std::string();
}

TEST(EnvFork, DivergentForksMatchFreshReplay) {
  const std::vector<int> Prefix = {0, 1, 2};
  const std::vector<std::vector<int>> Suffixes = {{3}, {4, 1}, {2, 2, 0}};

  auto Parent = makeLlvm();
  ASSERT_TRUE(Parent->reset().isOk());
  ASSERT_TRUE(Parent->step(Prefix).isOk());

  for (const std::vector<int> &Suffix : Suffixes) {
    auto Fork = Parent->fork();
    ASSERT_TRUE(Fork.isOk()) << Fork.status().toString();
    ASSERT_TRUE((*Fork)->step(Suffix).isOk());

    // A fresh env replaying prefix + suffix must land on the same state,
    // reward and episode history.
    auto Ref = makeLlvm();
    ASSERT_TRUE(Ref->reset().isOk());
    ASSERT_TRUE(Ref->step(Prefix).isOk());
    ASSERT_TRUE(Ref->step(Suffix).isOk());
    EXPECT_EQ(irHash(**Fork), irHash(*Ref));
    EXPECT_DOUBLE_EQ((*Fork)->episodeReward(), Ref->episodeReward());
    EXPECT_EQ((*Fork)->episodeLength(), Ref->episodeLength());
    EXPECT_EQ((*Fork)->state().Actions, Ref->state().Actions);
  }
}

TEST(EnvFork, ForkMutationNeverLeaksToParentOrSiblings) {
  auto Parent = makeLlvm();
  ASSERT_TRUE(Parent->reset().isOk());
  ASSERT_TRUE(Parent->step({0, 1}).isOk());
  const std::string ParentHash = irHash(*Parent);

  auto A = Parent->fork();
  auto B = Parent->fork();
  ASSERT_TRUE(A.isOk());
  ASSERT_TRUE(B.isOk());
  // Stepping one fork must not move the parent or the sibling.
  ASSERT_TRUE((*A)->step({2, 3, 4}).isOk());
  EXPECT_EQ(irHash(*Parent), ParentHash);
  EXPECT_EQ(irHash(**B), ParentHash);
  // And divergence in the sibling stays out of the parent and the fork.
  const std::string AHash = irHash(**A);
  ASSERT_TRUE((*B)->step({5}).isOk());
  EXPECT_EQ(irHash(*Parent), ParentHash);
  EXPECT_EQ(irHash(**A), AHash);
}

// -- Replay-free crash recovery ------------------------------------------------

TEST(Recovery, CrashRecoveryRestoresSnapshotWithZeroReplayedActions) {
  // Fault-free reference for the final state.
  auto Ref = makeLlvm();
  ASSERT_TRUE(Ref->reset().isOk());
  for (int Step = 0; Step < 10; ++Step)
    ASSERT_TRUE(Ref->step(Step % 5).isOk());

  core::MakeOptions Crashy;
  Crashy.Benchmark = "benchmark://cbench-v1/crc32";
  Crashy.ObservationSpace = "none";
  Crashy.RewardSpace = "IrInstructionCount";
  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = fault::FaultKind::Crash,
                        .AfterHits = 7,
                        .MaxFires = 1});
  fault::ScopedFaultPlan Armed(Plan);
  const uint64_t RecoveriesBefore = recoveries();
  auto Env = core::make("llvm-v0", Crashy);
  ASSERT_TRUE(Env.isOk());
  ASSERT_TRUE((*Env)->reset().isOk());

  const uint64_t ReplayedBefore = replayedActions();
  const uint64_t HitsBefore = snapshotHits();
  const uint64_t RestoresBefore = snapshotRestores();
  for (int Step = 0; Step < 10; ++Step) {
    auto R = (*Env)->step(Step % 5);
    ASSERT_TRUE(R.isOk()) << "step " << Step << ": "
                          << R.status().toString();
  }
  // The service really crashed, and recovery restored the last committed
  // state from its snapshot instead of replaying the episode.
  EXPECT_GE(recoveries() - RecoveriesBefore, 1u);
  EXPECT_GT(snapshotHits(), HitsBefore);
  EXPECT_GT(snapshotRestores(), RestoresBefore);
  EXPECT_EQ(replayedActions(), ReplayedBefore);
  // Bit-identical to the uninterrupted episode.
  EXPECT_EQ(irHash(**Env), irHash(*Ref));
  EXPECT_DOUBLE_EQ((*Env)->episodeReward(), Ref->episodeReward());
}

TEST(Recovery, CrashWithEvictedSnapshotReplaysTheEpisode) {
  auto Ref = makeLlvm();
  ASSERT_TRUE(Ref->reset().isOk());
  for (int Step = 0; Step < 10; ++Step)
    ASSERT_TRUE(Ref->step(Step % 5).isOk());

  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());
  for (int Step = 0; Step < 5; ++Step)
    ASSERT_TRUE(Env->step(Step % 5).isOk());
  // With no snapshot of the committed state left, recovery from a crash on
  // the 6th step must replay the 5 committed actions.
  SnapshotStore::global().clear();
  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "service.handle",
                        .Kind = fault::FaultKind::Crash,
                        .MaxFires = 1});
  const uint64_t RecoveriesBefore = recoveries();
  const uint64_t ReplayedBefore = replayedActions();
  {
    fault::ScopedFaultPlan Armed(Plan);
    auto R = Env->step(5 % 5);
    ASSERT_TRUE(R.isOk()) << R.status().toString();
  }
  EXPECT_EQ(recoveries() - RecoveriesBefore, 1u);
  EXPECT_EQ(replayedActions() - ReplayedBefore, 5u);
  for (int Step = 6; Step < 10; ++Step)
    ASSERT_TRUE(Env->step(Step % 5).isOk());
  EXPECT_EQ(irHash(*Env), irHash(*Ref));
  EXPECT_DOUBLE_EQ(Env->episodeReward(), Ref->episodeReward());
  EXPECT_EQ(Env->state().Actions, Ref->state().Actions);
}

TEST(Recovery, RebaseWithEvictedSnapshotReplaysParentHistory) {
  auto Parent = makeLlvm();
  ASSERT_TRUE(Parent->reset().isOk());
  ASSERT_TRUE(Parent->step({0, 1, 2, 3}).isOk());
  auto Env = makeLlvm();
  ASSERT_TRUE(Env->reset().isOk());

  SnapshotStore::global().clear();
  const uint64_t ReplayedBefore = replayedActions();
  ASSERT_TRUE(Env->rebase(*Parent).isOk());
  EXPECT_EQ(replayedActions() - ReplayedBefore, 4u);
  // Neither env read IrHash before the rebase, so both compute it now
  // rather than the rebased env echoing a copied view cache.
  EXPECT_EQ(irHash(*Env), irHash(*Parent));
  EXPECT_DOUBLE_EQ(Env->episodeReward(), Parent->episodeReward());
  EXPECT_EQ(Env->episodeLength(), Parent->episodeLength());
}

// -- EnvPool candidate fan-out -------------------------------------------------

runtime::EnvPoolOptions fanoutPoolOptions(size_t Workers) {
  runtime::EnvPoolOptions Opts;
  Opts.EnvId = "llvm-v0";
  Opts.Make.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.Make.ObservationSpace = "none";
  Opts.Make.RewardSpace = "IrInstructionCount";
  Opts.NumWorkers = Workers;
  Opts.Broker.MonitorIntervalMs = 0;
  return Opts;
}

TEST(EnvPool, EvaluateContinuationsMatchesSequentialReference) {
  const std::vector<int> Prefix = {0, 1};
  const std::vector<std::vector<int>> Candidates = {
      {2}, {3}, {4, 1}, {}, {0, 2, 3}};

  // Expected deltas from fresh envs replaying prefix + candidate.
  std::vector<double> Expected;
  for (const std::vector<int> &Cand : Candidates) {
    auto Ref = makeLlvm();
    ASSERT_TRUE(Ref->reset().isOk());
    ASSERT_TRUE(Ref->step(Prefix).isOk());
    const double Base = Ref->episodeReward();
    if (!Cand.empty())
      ASSERT_TRUE(Ref->step(Cand).isOk());
    Expected.push_back(Ref->episodeReward() - Base);
  }

  auto Pool = runtime::EnvPool::create(fanoutPoolOptions(3));
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  ASSERT_TRUE((*Pool)->resetAll().isOk());
  core::CompilerEnv &Parent = (*Pool)->env(0);
  ASSERT_TRUE(Parent.step(Prefix).isOk());
  const std::string ParentHash = irHash(Parent);

  auto Deltas = (*Pool)->evaluateContinuations(Parent, Candidates);
  ASSERT_TRUE(Deltas.isOk()) << Deltas.status().toString();
  ASSERT_EQ(Deltas->size(), Candidates.size());
  for (size_t I = 0; I < Candidates.size(); ++I)
    EXPECT_DOUBLE_EQ((*Deltas)[I], Expected[I]) << "candidate " << I;

  // The fan-out never stepped or mutated the parent.
  EXPECT_EQ(Parent.episodeLength(), Prefix.size());
  EXPECT_EQ(irHash(Parent), ParentHash);
}

TEST(EnvPool, FanoutOnColocatedShardsIsRaceFree) {
  // Two envs per shard plus an external (non-pool) parent: every worker
  // rebases from the same parent concurrently — the TSan target for the
  // SnapshotStore and the shared COW payloads.
  auto Parent = makeLlvm();
  ASSERT_TRUE(Parent->reset().isOk());
  ASSERT_TRUE(Parent->step({0, 1, 2}).isOk());

  runtime::EnvPoolOptions Opts = fanoutPoolOptions(4);
  Opts.Broker.NumShards = 2;
  auto Pool = runtime::EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();

  std::vector<std::vector<int>> Candidates;
  for (int I = 0; I < 12; ++I)
    Candidates.push_back({I % 5, (I + 2) % 5});
  auto Deltas = (*Pool)->evaluateContinuations(*Parent, Candidates);
  ASSERT_TRUE(Deltas.isOk()) << Deltas.status().toString();
  ASSERT_EQ(Deltas->size(), Candidates.size());
  // Identical candidates must score identically regardless of worker.
  for (size_t I = 5; I < Candidates.size(); ++I)
    EXPECT_DOUBLE_EQ((*Deltas)[I], (*Deltas)[I - 5]) << "candidate " << I;
  EXPECT_EQ(Parent->episodeLength(), 3u);
}

} // namespace
