//===- tests/analysis_manager_test.cpp - Invalidation correctness -*-C++-*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The differential invalidation suite: for every registered pass and a
// corpus of generated programs, running the pass under the AnalysisManager
// must leave every cached analysis (dominators, loops, feature vectors)
// byte-equal to a from-scratch recomputation. Plus the preservation-lie
// detector, pass-instance reuse, the one invalidation rule every
// notification follows, the incremental observations, the state digest
// over every state the corpus reaches, and the invariant the service's
// observation cache relies on: deterministic observations are a function
// of the session's state key.

#include "analysis/Autophase.h"
#include "analysis/InstCount.h"
#include "analysis/Inst2vec.h"
#include "analysis/ProGraML.h"
#include "datasets/CsmithGenerator.h"
#include "datasets/CuratedSuites.h"
#include "datasets/DatasetRegistry.h"
#include "envs/llvm/LlvmSession.h"
#include "ir/Dominators.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/UseTable.h"
#include "ir/Verifier.h"
#include "passes/PassManager.h"
#include "passes/Utils.h"
#include "passes/PassRegistry.h"
#include "service/Serialization.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

using namespace compiler_gym;
using namespace compiler_gym::ir;
using namespace compiler_gym::passes;

namespace {

std::unique_ptr<Module> parse(const std::string &Text) {
  auto M = parseModule(Text);
  EXPECT_TRUE(M.isOk()) << M.status().toString();
  return M.isOk() ? M.takeValue() : nullptr;
}

/// Process-wide series; tests diff them across a window that runs one
/// manager, cache or session.
telemetry::Counter &series(const std::string &Name,
                           const telemetry::Labels &L = {}) {
  return telemetry::MetricsRegistry::global().counter(Name, L);
}

telemetry::Counter &lookups(const char *Kind, const char *Outcome) {
  return series("cg_analysis_lookups_total",
                {{"kind", Kind}, {"outcome", Outcome}});
}

const char *TwoFunctionModule = R"(module "t"
func @helper(i64 %x) -> i64 {
entry:
  %slot = alloca ptr words 1
  store i64 %x, ptr %slot
  %v = load i64, ptr %slot
  %r = mul i64 i64 %v, i64 3
  ret i64 %r
}
func @main(i64 %n) -> i64 {
entry:
  %dead = add i64 i64 %n, i64 1
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %then, label %done
then:
  %a = add i64 i64 %n, i64 5
  br label %done
done:
  %p = phi i64 [ 0, %entry ], [ %a, %then ]
  ret i64 %p
}
)";

TEST(PreservedAnalyses, MaskSemantics) {
  EXPECT_TRUE(PreservedAnalyses::all().preserves(AK_All));
  EXPECT_FALSE(PreservedAnalyses::none().preserves(AK_DomTree));
  PreservedAnalyses P = PreservedAnalyses::cfg();
  EXPECT_TRUE(P.preserves(AK_DomTree | AK_Loops));
  EXPECT_FALSE(P.preserves(AK_Features));
  EXPECT_FALSE(P.preserves(AK_Layout));
  EXPECT_EQ(P.abandoned(), AK_Features | AK_Layout);
  // Layout-only transforms keep counts and CFG analyses warm.
  PreservedAnalyses L = PreservedAnalyses::allButLayout();
  EXPECT_TRUE(L.preserves(AK_DomTree | AK_Loops | AK_Features));
  EXPECT_FALSE(L.preserves(AK_Layout));
  EXPECT_EQ(L.abandoned(), AK_Layout);
  P.abandon(AK_CFG);
  EXPECT_EQ(P.abandoned(), AK_All);
  PreservedAnalyses Q = PreservedAnalyses::none().preserve(AK_Loops);
  EXPECT_TRUE(Q.preserves(AK_Loops));
  EXPECT_FALSE(Q.preserves(AK_DomTree));
}

TEST(AnalysisManager, CachesDomTreeAndLoops) {
  telemetry::Counter &DomCompute = lookups("domtree", "compute");
  telemetry::Counter &DomHit = lookups("domtree", "hit");
  telemetry::Counter &LoopCompute = lookups("loops", "compute");
  telemetry::Counter &LoopHit = lookups("loops", "hit");
  const uint64_t DomCompute0 = DomCompute.value();
  const uint64_t DomHit0 = DomHit.value();
  const uint64_t LoopCompute0 = LoopCompute.value();
  const uint64_t LoopHit0 = LoopHit.value();
  auto M = parse(TwoFunctionModule);
  Function *F = M->findFunction("main");
  AnalysisManager AM;
  const DominatorTree &DT1 = AM.domTree(*F);
  const DominatorTree &DT2 = AM.domTree(*F);
  EXPECT_EQ(&DT1, &DT2);
  EXPECT_EQ(DomCompute.value() - DomCompute0, 1u);
  EXPECT_EQ(DomHit.value() - DomHit0, 1u);
  (void)AM.loops(*F);
  (void)AM.loops(*F);
  EXPECT_EQ(LoopCompute.value() - LoopCompute0, 1u);
  EXPECT_EQ(LoopHit.value() - LoopHit0, 1u);

  // Feature-only invalidation keeps CFG analyses warm.
  AM.invalidate(*F, PreservedAnalyses::cfg());
  EXPECT_TRUE(AM.isCached(*F, AK_DomTree));
  EXPECT_TRUE(AM.isCached(*F, AK_Loops));
  // Full invalidation drops them.
  AM.invalidate(*F, PreservedAnalyses::none());
  EXPECT_FALSE(AM.isCached(*F, AK_DomTree));
  EXPECT_FALSE(AM.isCached(*F, AK_Loops));
  (void)AM.domTree(*F);
  EXPECT_EQ(DomCompute.value() - DomCompute0, 2u);
}

TEST(AnalysisManager, FeaturesMatchFromScratchAndRecountOnlyDirty) {
  telemetry::Counter &Recomputes = series("cg_feature_recomputes_total");
  const uint64_t Before = Recomputes.value();
  auto M = parse(TwoFunctionModule);
  AnalysisManager AM;
  EXPECT_EQ(AM.instCount(*M), analysis::instCount(*M));
  EXPECT_EQ(AM.autophase(*M), analysis::autophase(*M));
  uint64_t AfterCold = Recomputes.value() - Before;
  EXPECT_EQ(AfterCold, 4u); // 2 functions x 2 feature kinds.

  // Unchanged module: pure cache hits.
  EXPECT_EQ(AM.instCount(*M), analysis::instCount(*M));
  EXPECT_EQ(Recomputes.value() - Before, AfterCold);

  // Dirty one function: exactly one per-kind recount.
  AM.invalidate(*M->findFunction("main"), PreservedAnalyses::cfg());
  EXPECT_EQ(AM.instCount(*M), analysis::instCount(*M));
  EXPECT_EQ(Recomputes.value() - Before, AfterCold + 1);
  EXPECT_EQ(AM.autophase(*M), analysis::autophase(*M));
  EXPECT_EQ(Recomputes.value() - Before, AfterCold + 2);
}

TEST(AnalysisManager, FeaturesSelfHealOnFunctionSetChanges) {
  auto M = parse(TwoFunctionModule);
  AnalysisManager AM;
  (void)AM.instCount(*M);
  Function *Helper = M->findFunction("helper");
  // Drop the call-free helper without telling the manager.
  M->eraseFunction(Helper);
  EXPECT_EQ(AM.instCount(*M), analysis::instCount(*M));
  EXPECT_EQ(AM.autophase(*M), analysis::autophase(*M));

  // Add a function without telling the manager, and look up its dominator
  // tree: the entry that creates must not hide the new function from the
  // next observation.
  Function *Extra = M->createFunction("extra", Type::I64);
  Extra->createBlock("entry")->append(std::make_unique<Instruction>(
      Opcode::Ret, Type::Void,
      std::vector<Value *>{M->getConstInt(Type::I64, 7)}));
  (void)AM.domTree(*Extra);
  EXPECT_EQ(AM.instCount(*M), analysis::instCount(*M));
  EXPECT_EQ(AM.autophase(*M), analysis::autophase(*M));
}

/// Computes all six per-function results: each function's dominator tree,
/// loops and four observation artifacts.
void warmAll(AnalysisManager &AM, const Module &M) {
  for (const auto &F : M.functions()) {
    (void)AM.domTree(*F);
    (void)AM.loops(*F);
  }
  (void)AM.instCount(M);
  (void)AM.autophase(M);
  (void)AM.inst2vec(M);
  (void)AM.programl(M);
}

/// Each module-level answer equals its from-scratch extractor.
void expectObservationsMatchFromScratch(AnalysisManager &AM,
                                        const Module &M) {
  EXPECT_EQ(AM.instCount(M), analysis::instCount(M));
  EXPECT_EQ(AM.autophase(M), analysis::autophase(M));
  EXPECT_EQ(AM.inst2vec(M), analysis::inst2vec(M));
  analysis::ProgramGraph FromCache;
  ASSERT_TRUE(analysis::deserializeGraph(AM.programl(M), FromCache));
  EXPECT_TRUE(FromCache == analysis::buildProgramGraph(M));
}

/// Changes nothing; over shared payloads FunctionPass::run still detaches a
/// copy of each function before calling it.
class NoOpPass : public FunctionPass {
public:
  std::string name() const override { return "no-op-pass"; }

  PassResult runOnFunction(Function &, AnalysisManager &) override {
    return PassResult::make(false, PreservedAnalyses::all());
  }
};

/// A fresh module under a session-style pass manager, plus what an event
/// may need to keep alive: a live share and a second manager.
struct EventState {
  std::unique_ptr<Module> M = parse(TwoFunctionModule);
  PassManager PM{*M};
  std::unique_ptr<Module> Share;
  AnalysisManager Child;
};

/// One notification, and which kinds the entry it decides holds after it.
struct CacheEvent {
  const char *Name;
  /// Applies the event to the warm state. Returns the manager and the
  /// function whose entry the expectations are about.
  std::function<std::pair<AnalysisManager *, const Function *>(EventState &)>
      Apply;
  bool DomTree, Loops, Features, Layout;
};

TEST(AnalysisManager, OneInvalidationRuleForEveryEvent) {
  auto invalidateWith = [](PreservedAnalyses PA) {
    return [PA](EventState &S) {
      AnalysisManager &AM = S.PM.analysisManager();
      const Function *F = S.M->findFunction("main");
      AM.invalidate(*F, PA);
      return std::pair{&AM, F};
    };
  };
  const CacheEvent Events[] = {
      {"invalidate none()", invalidateWith(PreservedAnalyses::none()), false,
       false, false, false},
      {"invalidate cfg()", invalidateWith(PreservedAnalyses::cfg()), true,
       true, false, false},
      {"invalidate allButLayout()",
       invalidateWith(PreservedAnalyses::allButLayout()), true, true, true,
       false},
      {"invalidate all()", invalidateWith(PreservedAnalyses::all()), true,
       true, true, true},
      {"functionErased",
       [](EventState &S) {
         // The live share keeps the erased payload's address valid.
         S.Share = S.M->share();
         AnalysisManager &AM = S.PM.analysisManager();
         Function *F = S.M->findFunction("helper");
         AM.functionErased(F);
         S.M->eraseFunction(F);
         return std::pair{&AM, static_cast<const Function *>(F)};
       },
       false, false, false, false},
      {"cowDetached",
       [](EventState &S) {
         // Every payload is shared, so the pass runs on copies.
         S.Share = S.M->share();
         NoOpPass P;
         auto R = S.PM.run(P);
         EXPECT_TRUE(R.isOk()) << R.status().toString();
         AnalysisManager &AM = S.PM.analysisManager();
         const Function *Old = S.Share->findFunction("main");
         const Function *Copy = S.M->findFunction("main");
         EXPECT_NE(Old, Copy);
         for (AnalysisKind Kind : {AK_DomTree, AK_Loops, AK_Features,
                                   AK_Layout})
           EXPECT_FALSE(AM.isCached(*Old, Kind)) << "old payload " << Kind;
         return std::pair{&AM, Copy};
       },
       false, false, true, true},
      {"adoptFrom",
       [](EventState &S) {
         S.Child.adoptFrom(S.PM.analysisManager());
         return std::pair{&S.Child,
                          static_cast<const Function *>(
                              S.M->findFunction("main"))};
       },
       false, false, true, true},
  };
  for (const CacheEvent &Event : Events) {
    SCOPED_TRACE(Event.Name);
    EventState S;
    warmAll(S.PM.analysisManager(), *S.M);
    auto [AM, F] = Event.Apply(S);
    EXPECT_EQ(AM->isCached(*F, AK_DomTree), Event.DomTree);
    EXPECT_EQ(AM->isCached(*F, AK_Loops), Event.Loops);
    EXPECT_EQ(AM->isCached(*F, AK_Features), Event.Features);
    EXPECT_EQ(AM->isCached(*F, AK_Layout), Event.Layout);
    expectObservationsMatchFromScratch(*AM, *S.M);
  }
}

TEST(AnalysisManager, CountsEachDroppedResult) {
  auto invalidations = [](const char *Kind) -> telemetry::Counter & {
    return series("cg_analysis_invalidations_total", {{"kind", Kind}});
  };
  const char *Kinds[] = {"domtree", "loops", "features", "layout"};
  auto snapshot = [&] {
    std::map<std::string, uint64_t> Values;
    for (const char *Kind : Kinds)
      Values[Kind] = invalidations(Kind).value();
    return Values;
  };
  auto M = parse(TwoFunctionModule);
  AnalysisManager AM;
  warmAll(AM, *M);
  const Function *Main = M->findFunction("main");
  auto Before = snapshot();
  // Two vectors (InstCount, Autophase) and two layout artifacts (Inst2vec
  // segment, ProGraML fragment) per function.
  AM.invalidate(*Main, PreservedAnalyses::cfg());
  auto AfterCfg = snapshot();
  EXPECT_EQ(AfterCfg["domtree"] - Before["domtree"], 0u);
  EXPECT_EQ(AfterCfg["loops"] - Before["loops"], 0u);
  EXPECT_EQ(AfterCfg["features"] - Before["features"], 2u);
  EXPECT_EQ(AfterCfg["layout"] - Before["layout"], 2u);
  // Only results still cached count.
  AM.invalidate(*Main, PreservedAnalyses::none());
  auto AfterNone = snapshot();
  EXPECT_EQ(AfterNone["domtree"] - AfterCfg["domtree"], 1u);
  EXPECT_EQ(AfterNone["loops"] - AfterCfg["loops"], 1u);
  EXPECT_EQ(AfterNone["features"] - AfterCfg["features"], 0u);
  EXPECT_EQ(AfterNone["layout"] - AfterCfg["layout"], 0u);
}

TEST(PassManager, ReusesPassInstancesAcrossRunsAndRounds) {
  telemetry::Counter &Runs = series("cg_passes_run_total");
  const uint64_t Runs0 = Runs.value();
  auto M = parse(TwoFunctionModule);
  PassManager PM(*M);
  ASSERT_TRUE(PM.run("dce").isOk());
  ASSERT_TRUE(PM.run("dce").isOk());
  ASSERT_TRUE(PM.run("instcombine").isOk());
  EXPECT_EQ(PM.stats().PassInstancesCreated, 2u);
  EXPECT_EQ(Runs.value() - Runs0, 3u);

  // Fixpoint iteration re-runs the pipeline but never re-creates passes.
  ASSERT_TRUE(
      PM.runToFixpoint({"mem2reg", "instcombine", "simplifycfg"}, 4).isOk());
  EXPECT_EQ(PM.stats().PassInstancesCreated, 4u); // +mem2reg, +simplifycfg.
}

TEST(PassManager, RecordsLatencyPerPass) {
  auto latency = [](const char *Pass) -> telemetry::Histogram & {
    return telemetry::MetricsRegistry::global().histogram(
        "cg_pass_latency_us", {{"pass", Pass}});
  };
  const uint64_t Dce0 = latency("dce").count();
  const uint64_t Combine0 = latency("instcombine").count();
  auto M = parse(TwoFunctionModule);
  PassManager PM(*M);
  ASSERT_TRUE(PM.run("dce").isOk());
  ASSERT_TRUE(PM.run("dce").isOk());
  ASSERT_TRUE(PM.run("instcombine").isOk());
  EXPECT_EQ(latency("dce").count() - Dce0, 2u);
  EXPECT_EQ(latency("instcombine").count() - Combine0, 1u);
}

TEST(PassManager, UnknownPassIsNotFound) {
  auto M = parse(TwoFunctionModule);
  PassManager PM(*M);
  auto R = PM.run("nope");
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::NotFound);
}

/// Erases the first unused instruction without side effects in \p F;
/// false if there is none.
bool eraseUnusedPureInstruction(Function &F) {
  UseTable Uses(F);
  for (const auto &BB : F.blocks()) {
    for (size_t I = 0; I < BB->size(); ++I) {
      Instruction *Inst = BB->instructions()[I].get();
      if (Inst->isTerminator() || Uses.hasUses(Inst) || Inst->hasSideEffects())
        continue;
      BB->erase(I);
      return true;
    }
  }
  return false;
}

/// A pass that changes the CFG (merges a trivial chain) but claims it
/// preserved everything — the lie the debug checker must catch.
class LyingPass : public FunctionPass {
public:
  std::string name() const override { return "lying-pass"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    // Cut an edge by rewriting the entry terminator to branch to itself...
    // too destructive; instead delete a non-terminator instruction, which
    // invalidates feature vectors, while claiming even features survived.
    bool Changed = eraseUnusedPureInstruction(F);
    return PassResult::make(Changed, PreservedAnalyses::all()); // The lie.
  }
};

/// Changes a function but reports no change at all, so the module keeps
/// the copy's frozen twin, and a snapshot would keep the old body.
class SilentMutationPass : public FunctionPass {
public:
  std::string name() const override { return "silent-mutation-pass"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    (void)eraseUnusedPureInstruction(F);
    return PassResult::make(false, PreservedAnalyses::all()); // The lie.
  }
};

/// Lies about the dominator tree specifically: merges a linear block chain
/// (CFG change) while claiming full preservation.
class CfgLyingPass : public FunctionPass {
public:
  std::string name() const override { return "cfg-lying-pass"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    // Append an unreachable block: idoms are unaffected but the block is
    // new, so a fresh dominator tree sees different reachability... not a
    // lie the checker must catch via idom; instead split: create a block
    // and redirect the entry terminator through it.
    if (F.numBlocks() == 0 || !F.entry()->terminator())
      return PassResult::make(false, PreservedAnalyses::all());
    Instruction *Term = F.entry()->terminator();
    if (Term->opcode() != Opcode::Br && Term->opcode() != Opcode::CondBr)
      return PassResult::make(false, PreservedAnalyses::all());
    BasicBlock *Target = nullptr;
    for (BasicBlock *Succ : F.entry()->successors()) {
      Target = Succ;
      break;
    }
    if (!Target)
      return PassResult::make(false, PreservedAnalyses::all());
    BasicBlock *Tramp = F.createBlock("tramp");
    auto Br = std::make_unique<Instruction>(Opcode::Br, Type::Void,
                                            std::vector<Value *>{Target});
    Tramp->append(std::move(Br));
    Term->replaceSuccessor(Target, Tramp);
    replacePhiIncomingBlock(*Target, F.entry(), Tramp);
    return PassResult::make(true, PreservedAnalyses::all()); // The lie.
  }
};

TEST(PassManager, CatchesFeaturePreservationLie) {
  auto M = parse(TwoFunctionModule);
  PassManager PM(*M);
  PM.setVerifyPreservation(true);
  // Warm the features so the checker has something to compare.
  (void)PM.analysisManager().instCount(*M);
  LyingPass Liar;
  auto R = PM.run(Liar);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Internal);
  EXPECT_NE(R.status().toString().find("lying-pass"), std::string::npos);
}

TEST(PassManager, CatchesDomTreePreservationLie) {
  auto M = parse(TwoFunctionModule);
  PassManager PM(*M);
  PM.setVerifyPreservation(true);
  for (const auto &F : M->functions())
    (void)PM.analysisManager().domTree(*F);
  CfgLyingPass Liar;
  auto R = PM.run(Liar);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Internal);
}

TEST(PassManager, CatchesUnreportedMutation) {
  auto M = parse(TwoFunctionModule);
  // A live share makes every payload shared, so the pass runs on copies
  // whose originals stay behind as frozen twins.
  auto Shared = M->share();
  PassManager PM(*M);
  PM.setVerifyPreservation(true);
  SilentMutationPass Liar;
  auto R = PM.run(Liar);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Internal);
  EXPECT_NE(R.status().toString().find("silent-mutation-pass"),
            std::string::npos);
}

/// Says it cannot change any function, then changes one when it runs:
/// the skip a wrong mayChange() causes.
class WrongMayChangePass : public FunctionPass {
public:
  std::string name() const override { return "wrong-may-change-pass"; }

  bool mayChange(Module &, const Function &, AnalysisManager &) override {
    return false; // The lie.
  }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    return PassResult::make(eraseUnusedPureInstruction(F),
                            PreservedAnalyses::cfg());
  }
};

TEST(PassManager, CatchesWrongMayChange) {
  auto M = parse(TwoFunctionModule);
  const std::string Before = printModule(*M);
  // A live share: every payload is shared, so the pass is asked first and
  // skips both functions.
  auto Shared = M->share();
  PassManager PM(*M);
  PM.setVerifyPreservation(true);
  WrongMayChangePass Liar;
  auto R = PM.run(Liar);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Internal);
  EXPECT_NE(R.status().toString().find("wrong-may-change-pass"),
            std::string::npos);
  // helper has nothing to erase; main's %dead goes.
  EXPECT_NE(R.status().toString().find("'main'"), std::string::npos);
  EXPECT_EQ(printModule(*M), Before);

  // An exclusive function is never shown to mayChange(): the transform
  // runs and reports its change.
  auto Own = parse(TwoFunctionModule);
  PassManager OwnPM(*Own);
  OwnPM.setVerifyPreservation(true);
  auto OwnR = OwnPM.run(Liar);
  ASSERT_TRUE(OwnR.isOk()) << OwnR.status().toString();
  EXPECT_TRUE(*OwnR);
}

/// Claims loop info survived (preserve(AK_Loops) alone, so the dominator
/// tree is dropped) while rerouting a back edge — the cached loops must be
/// verified even without a cached tree.
class LoopsLyingPass : public FunctionPass {
public:
  std::string name() const override { return "loops-lying-pass"; }

  PassResult runOnFunction(Function &F, AnalysisManager &) override {
    BasicBlock *Body = F.findBlock("body");
    if (!Body || !Body->terminator())
      return PassResult::make(false, PreservedAnalyses::all());
    BasicBlock *Tramp = F.createBlock("latch.tramp");
    auto Br = std::make_unique<Instruction>(Opcode::Br, Type::Void,
                                            std::vector<Value *>{Body});
    Tramp->append(std::move(Br));
    Body->terminator()->replaceSuccessor(Body, Tramp);
    replacePhiIncomingBlock(*Body, Body, Tramp);
    return PassResult::make(
        true, PreservedAnalyses::none().preserve(AK_Loops)); // The lie.
  }
};

TEST(PassManager, CatchesLoopsOnlyPreservationLie) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  br label %body
body:
  %i = phi i64 [ 0, %entry ], [ %inext, %body ]
  %inext = add i64 i64 %i, i64 1
  %c = icmp i1 lt i64 %inext, i64 50
  condbr i1 %c, label %body, label %exit
exit:
  ret i64 7
}
)");
  PassManager PM(*M);
  PM.setVerifyPreservation(true);
  ASSERT_EQ(PM.analysisManager().loops(*M->findFunction("main")).size(), 1u);
  LoopsLyingPass Liar;
  auto R = PM.run(Liar);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Internal);
  EXPECT_NE(R.status().toString().find("loop info"), std::string::npos);
}

/// A module pass that edits a function and reports nothing to the
/// AnalysisManager: it only returns an honest PassResult.
class NaiveModulePass : public Pass {
public:
  std::string name() const override { return "naive-module-pass"; }
  PassResult run(Module &M, AnalysisManager &) override {
    // Delete the first deletable instruction anywhere in the module.
    for (const auto &F : M.functions())
      if (eraseUnusedPureInstruction(*F))
        return PassResult::make(true, PreservedAnalyses::cfg());
    return PassResult::make(false, PreservedAnalyses::all());
  }
};

TEST(PassManager, CatchesModulePassThatSkipsInvalidation) {
  // Nothing invalidates on a pass's behalf: the unreported edit leaves
  // the warm InstCount vector stale, and the verifier names the pass.
  auto M = parse(TwoFunctionModule);
  PassManager PM(*M);
  PM.setVerifyPreservation(true);
  (void)PM.analysisManager().instCount(*M);
  NaiveModulePass P;
  auto R = PM.run(P);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Internal);
  EXPECT_NE(R.status().toString().find("naive-module-pass"),
            std::string::npos);
}

TEST(PassManager, HonestPassSurvivesVerification) {
  auto M = parse(TwoFunctionModule);
  PassManager PM(*M);
  PM.setVerifyPreservation(true);
  for (const auto &F : M->functions()) {
    (void)PM.analysisManager().domTree(*F);
    (void)PM.analysisManager().loops(*F);
  }
  (void)PM.analysisManager().instCount(*M);
  ASSERT_TRUE(PM.runPipeline({"mem2reg", "instcombine", "simplifycfg",
                              "gvn", "sccp", "adce"})
                  .isOk());
}

// -- The differential suite: every registered pass x corpus module ----------

struct DiffCase {
  uint64_t ProgramSeed;
  const char *Dataset;
};

/// A corpus program, and whether a share of it stays alive during each
/// run: then the pass runs on copies of shared payloads, and the
/// frozen-twin check compares the module with its freeze().
class DifferentialInvalidation
    : public ::testing::TestWithParam<std::tuple<DiffCase, bool>> {};

TEST_P(DifferentialInvalidation, CachedAnalysesEqualFromScratch) {
  const auto &[C, Shared] = GetParam();
  datasets::ProgramStyle Style = datasets::styleForDataset(C.Dataset);
  telemetry::Counter &Skipped =
      series("cg_pass_cow_copies_total", {{"outcome", "skipped"}});
  const uint64_t SkippedBefore = Skipped.value();

  for (const std::string &Name : PassRegistry::instance().allNames()) {
    auto M = datasets::generateProgram(C.ProgramSeed, Style, "m");
    ASSERT_NE(M, nullptr);
    std::unique_ptr<Module> Share = Shared ? M->share() : nullptr;
    PassManager PM(*M);
    // The built-in checker verifies preserved *cached* analyses right
    // after the run; warm every analysis first so nothing escapes it.
    PM.setVerifyPreservation(true);
    AnalysisManager &AM = PM.analysisManager();
    for (const auto &F : M->functions()) {
      if (F->empty())
        continue;
      (void)AM.domTree(*F);
      (void)AM.loops(*F);
    }
    (void)AM.instCount(*M);
    (void)AM.autophase(*M);
    (void)AM.inst2vec(*M);
    (void)AM.programl(*M);

    auto Changed = PM.run(Name);
    ASSERT_TRUE(Changed.isOk())
        << "pass '" << Name << "': " << Changed.status().toString();
    ASSERT_TRUE(verifyModule(*M).isOk()) << "after " << Name;

    // Incrementally-maintained observations must be byte-equal to a
    // from-scratch recomputation of the mutated module.
    EXPECT_EQ(AM.instCount(*M), analysis::instCount(*M))
        << "InstCount diverged after " << Name;
    EXPECT_EQ(AM.autophase(*M), analysis::autophase(*M))
        << "Autophase diverged after " << Name;
    EXPECT_EQ(AM.inst2vec(*M), analysis::inst2vec(*M))
        << "Inst2vec diverged after " << Name;
    analysis::ProgramGraph FromCache;
    ASSERT_TRUE(analysis::deserializeGraph(AM.programl(*M), FromCache))
        << "Programl bytes undecodable after " << Name;
    EXPECT_TRUE(FromCache == analysis::buildProgramGraph(*M))
        << "Programl diverged after " << Name;

    // And the cached CFG analyses must match fresh ones.
    for (const auto &F : M->functions()) {
      if (F->empty())
        continue;
      const DominatorTree &Cached = AM.domTree(*F);
      DominatorTree Fresh(*F);
      EXPECT_EQ(Cached.reversePostorder(), Fresh.reversePostorder())
          << "RPO diverged after " << Name << " in " << F->name();
      for (const auto &BB : F->blocks()) {
        EXPECT_EQ(Cached.idom(BB.get()), Fresh.idom(BB.get()))
            << "idom diverged after " << Name << " in " << F->name();
        EXPECT_EQ(Cached.isReachable(BB.get()), Fresh.isReachable(BB.get()))
            << "reachability diverged after " << Name << " in " << F->name();
      }
    }
  }
  // Under a live share the passes with a mayChange() skip the functions
  // they cannot change, and the verifier reran each skipped transform
  // above; exclusive functions are never skipped.
  if (Shared)
    EXPECT_GT(Skipped.value() - SkippedBefore, 0u);
  else
    EXPECT_EQ(Skipped.value() - SkippedBefore, 0u);
}

const DiffCase Corpus[] = {{201, "benchmark://csmith-v0"},
                           {202, "benchmark://csmith-v0"},
                           {203, "benchmark://npb-v0"},
                           {204, "benchmark://npb-v0"}};

INSTANTIATE_TEST_SUITE_P(Corpus, DifferentialInvalidation,
                         ::testing::Combine(::testing::ValuesIn(Corpus),
                                            ::testing::Bool()));

// -- State digest over the corpus --------------------------------------------

TEST(ModuleHash, DistinctPrintedStatesNeverShareADigest) {
  // Every state the corpus reaches: each registered pass on a fresh copy
  // of each program, and each step of one chain through every pass.
  std::map<StateHash, std::string> TextOf;
  auto Record = [&](const Module &M, const std::string &After) {
    std::string Text = printModule(M);
    StateHash H = M.hash();
    auto [It, New] = TextOf.emplace(H, Text);
    EXPECT_TRUE(New || It->second == Text)
        << "two printed modules share digest " << H.hex() << " after "
        << After;
    EXPECT_EQ(M.share()->hash(), H) << "share() after " << After;
    EXPECT_EQ(M.clone()->hash(), H) << "clone() after " << After;
  };
  // LlvmSession only re-keys a state when the pass reports a change.
  auto RunAndCheck = [](PassManager &PM, Module &M, const std::string &Name) {
    StateHash Before = M.hash();
    auto Changed = PM.run(Name);
    ASSERT_TRUE(Changed.isOk()) << Name << ": " << Changed.status().toString();
    if (!*Changed) {
      EXPECT_EQ(M.hash(), Before) << Name << " reported no change";
    }
  };

  for (const DiffCase &C : Corpus) {
    datasets::ProgramStyle Style = datasets::styleForDataset(C.Dataset);
    auto Chain = datasets::generateProgram(C.ProgramSeed, Style, "m");
    ASSERT_NE(Chain, nullptr);
    PassManager ChainPM(*Chain);
    Record(*Chain, "generation");
    for (const std::string &Name : PassRegistry::instance().allNames()) {
      auto M = datasets::generateProgram(C.ProgramSeed, Style, "m");
      PassManager PM(*M);
      RunAndCheck(PM, *M, Name);
      Record(*M, Name);
      RunAndCheck(ChainPM, *Chain, Name);
      Record(*Chain, "chain " + Name);
    }
  }
  // The passes must actually move the corpus for the check to mean much.
  EXPECT_GT(TextOf.size(), 100u);
}

TEST(ModuleHash, ForkKeepsDigest) {
  auto B = datasets::DatasetRegistry::instance().resolve(
      "benchmark://cbench-v1/crc32");
  ASSERT_TRUE(B.isOk());
  envs::LlvmSession Session;
  auto Spaces = Session.getActionSpaces();
  ASSERT_TRUE(Session.init(Spaces[0], *B).isOk());
  const auto &Actions = Spaces[0].ActionNames;
  for (const char *Pass : {"mem2reg", "loop-simplify", "licm", "gvn"}) {
    auto It = std::find(Actions.begin(), Actions.end(), Pass);
    ASSERT_NE(It, Actions.end()) << Pass;
    service::Action A;
    A.Index = static_cast<int>(It - Actions.begin());
    bool End = false, SpaceChanged = false;
    ASSERT_TRUE(Session.applyAction(A, End, SpaceChanged).isOk());

    auto Forked = Session.fork();
    ASSERT_TRUE(Forked.isOk());
    const auto *Clone = static_cast<envs::LlvmSession *>(Forked->get());
    EXPECT_EQ(Clone->module()->hash(), Session.module()->hash()) << Pass;
  }
}

// -- Session-level composition ----------------------------------------------

TEST(LlvmSessionCaching, ObservationsAndStateKeyFollowTheModule) {
  auto B = datasets::DatasetRegistry::instance().resolve(
      "benchmark://cbench-v1/crc32");
  ASSERT_TRUE(B.isOk());
  telemetry::Counter &Runs = series("cg_passes_run_total");
  const uint64_t Runs0 = Runs.value();
  envs::LlvmSession Session;
  auto Spaces = Session.getActionSpaces();
  ASSERT_FALSE(Spaces.empty());
  ASSERT_TRUE(Session.init(Spaces[0], *B).isOk());

  service::ObservationSpaceInfo InstCountSpace;
  for (const auto &O : Session.getObservationSpaces())
    if (O.Name == "InstCount")
      InstCountSpace = O;

  service::Observation O1, O2;
  ASSERT_TRUE(Session.computeObservation(InstCountSpace, O1).isOk());
  ASSERT_TRUE(Session.computeObservation(InstCountSpace, O2).isOk());
  EXPECT_EQ(O1.Ints, O2.Ints);
  EXPECT_EQ(O1.Ints, analysis::instCount(*Session.module()));

  // The state key is cached and changes when the module does.
  uint64_t Key1 = Session.stateKey();
  EXPECT_EQ(Key1, Session.stateKey());
  const auto &Actions = Spaces[0].ActionNames;
  int Mem2Reg = -1;
  for (size_t I = 0; I < Actions.size(); ++I)
    if (Actions[I] == "mem2reg")
      Mem2Reg = static_cast<int>(I);
  ASSERT_GE(Mem2Reg, 0);
  service::Action A;
  A.Index = Mem2Reg;
  bool End = false, SpaceChanged = false;
  ASSERT_TRUE(Session.applyAction(A, End, SpaceChanged).isOk());
  service::Observation O3;
  ASSERT_TRUE(Session.computeObservation(InstCountSpace, O3).isOk());
  EXPECT_EQ(O3.Ints, analysis::instCount(*Session.module()));
  EXPECT_NE(Session.stateKey(), Key1);

  // The session pass manager reuses instances and carries analyses.
  ASSERT_NE(Session.passManager(), nullptr);
  EXPECT_EQ(Runs.value() - Runs0, 1u);
}

TEST(LlvmSessionCaching, ForkGetsIndependentCaches) {
  auto B = datasets::DatasetRegistry::instance().resolve(
      "benchmark://cbench-v1/crc32");
  ASSERT_TRUE(B.isOk());
  envs::LlvmSession Session;
  auto Spaces = Session.getActionSpaces();
  ASSERT_TRUE(Session.init(Spaces[0], *B).isOk());
  uint64_t Key = Session.stateKey();

  auto Forked = Session.fork();
  ASSERT_TRUE(Forked.isOk());
  auto *Clone = static_cast<envs::LlvmSession *>(Forked->get());
  EXPECT_EQ(Clone->stateKey(), Key); // Same state, independent module.
  EXPECT_NE(Clone->module(), Session.module());
  EXPECT_NE(Clone->passManager(), Session.passManager());
}

TEST(LlvmSessionCaching, AnalysesSurviveAcrossSteps) {
  // Every step publishes a snapshot through stateKey(), as the service
  // does. The session keeps its copies of the shared benchmark payloads,
  // so once gvn stops changing anything, the next step reuses the
  // dominator trees cached on those copies instead of rebuilding them.
  auto B = datasets::DatasetRegistry::instance().resolve(
      "benchmark://cbench-v1/qsort");
  ASSERT_TRUE(B.isOk());
  envs::LlvmSession Session;
  const service::ActionSpace Space = Session.getActionSpaces()[0];
  ASSERT_TRUE(Session.init(Space, *B).isOk());
  telemetry::Counter &DomCompute = lookups("domtree", "compute");
  telemetry::Counter &DomHit = lookups("domtree", "hit");
  uint64_t Computed = 0, Hits = 0;
  for (const char *Pass : {"mem2reg", "gvn", "gvn", "licm-promote"}) {
    auto It = std::find(Space.ActionNames.begin(), Space.ActionNames.end(),
                        Pass);
    ASSERT_NE(It, Space.ActionNames.end()) << Pass;
    service::Action A;
    A.Index = static_cast<int>(It - Space.ActionNames.begin());
    bool End = false, SpaceChanged = false;
    const uint64_t Computed0 = DomCompute.value();
    const uint64_t Hits0 = DomHit.value();
    ASSERT_TRUE(Session.applyAction(A, End, SpaceChanged).isOk()) << Pass;
    (void)Session.stateKey();
    Computed = DomCompute.value() - Computed0;
    Hits = DomHit.value() - Hits0;
  }
  EXPECT_EQ(Computed, 0u) << "licm-promote rebuilt dominator trees";
  EXPECT_GT(Hits, 0u);
}

/// The wire bytes of one observation: the unit the service's cache stores
/// and diffs deltas against.
std::string wireBytes(const service::Observation &O) {
  service::ReplyEnvelope Reply;
  Reply.Step.Observations = {O};
  return service::encodeReply(Reply);
}

TEST(LlvmSessionCaching, DeterministicSpacesAreAFunctionOfStateKey) {
  // The service answers every session from the value cached under its
  // stateKey(), and diffs wire deltas against the value cached under the
  // client's base key. That is sound only if each deterministic space is
  // byte-equal for equal keys however the state was reached: incrementally
  // in a warm session, in a fork carrying the parent's feature caches, by
  // restoring the snapshot the key names into a fresh session, or by a
  // cold replay into a fresh session.
  const char *Programs[] = {
      "benchmark://cbench-v1/crc32", "benchmark://csmith-v0/7",
      "benchmark://github-v0/3", "benchmark://llvm-stress-v0/5"};
  constexpr size_t EpisodeLength = 12;
  constexpr size_t ForkAt = 4;
  const size_t ColdPrefixes[] = {2, 6, 12};

  std::map<std::pair<uint64_t, std::string>, std::string> Seen;
  // Restores, forks and cold replays retrace the warm session's actions,
  // so every state they reach must already be keyed, and is compared.
  auto observeAll = [&](envs::LlvmSession &S, const std::string &Where,
                        bool Revisit) {
    uint64_t Key = S.stateKey();
    for (const service::ObservationSpaceInfo &Space :
         S.getObservationSpaces()) {
      // The -Oz baselines are computed from the benchmark, not the state,
      // and cost an -Oz pipeline per session; the key covers them through
      // the benchmark URI.
      if (!Space.Deterministic || Space.Name.ends_with("Oz"))
        continue;
      service::Observation O;
      ASSERT_TRUE(S.computeObservation(Space, O).isOk())
          << Where << " " << Space.Name;
      auto [It, New] = Seen.emplace(std::make_pair(Key, Space.Name),
                                    wireBytes(O));
      if (Revisit) {
        EXPECT_FALSE(New) << Where << " " << Space.Name << " unseen key";
      }
      if (!New) {
        EXPECT_EQ(It->second, wireBytes(O)) << Where << " " << Space.Name;
      }
    }
  };
  auto applyAll = [](envs::LlvmSession &S, const std::vector<int> &Actions) {
    for (int Index : Actions) {
      service::Action A;
      A.Index = Index;
      bool End = false, SpaceChanged = false;
      ASSERT_TRUE(S.applyAction(A, End, SpaceChanged).isOk());
    }
  };

  Rng Gen(0x57A7E);
  for (const char *Uri : Programs) {
    auto B = datasets::DatasetRegistry::instance().resolve(Uri);
    ASSERT_TRUE(B.isOk()) << Uri;
    for (int Episode = 0; Episode < 2; ++Episode) {
      envs::LlvmSession Warm;
      const service::ActionSpace Space = Warm.getActionSpaces()[0];
      ASSERT_TRUE(Warm.init(Space, *B).isOk());
      std::vector<int> Actions;
      for (size_t I = 0; I < EpisodeLength; ++I)
        Actions.push_back(
            static_cast<int>(Gen.bounded(Space.ActionNames.size())));
      std::string Where = std::string(Uri) + " episode " +
                          std::to_string(Episode) + " step ";

      std::unique_ptr<service::CompilationSession> Fork;
      observeAll(Warm, Where + "0 (warm)", false);
      for (size_t I = 0; I < EpisodeLength; ++I) {
        applyAll(Warm, {Actions[I]});
        observeAll(Warm, Where + std::to_string(I + 1) + " (warm)", false);
        envs::LlvmSession Restored;
        ASSERT_TRUE(Restored.init(Space, *B).isOk());
        ASSERT_TRUE(Restored.restore(Warm.stateKey()));
        observeAll(Restored, Where + std::to_string(I + 1) + " (restored)",
                   true);
        if (I + 1 == ForkAt) {
          auto Forked = Warm.fork();
          ASSERT_TRUE(Forked.isOk());
          Fork = Forked.takeValue();
        }
      }
      auto &Forked = static_cast<envs::LlvmSession &>(*Fork);
      for (size_t I = ForkAt; I < EpisodeLength; ++I) {
        applyAll(Forked, {Actions[I]});
        observeAll(Forked, Where + std::to_string(I + 1) + " (fork)", true);
      }
      for (size_t Prefix : ColdPrefixes) {
        envs::LlvmSession Cold;
        ASSERT_TRUE(Cold.init(Space, *B).isOk());
        applyAll(Cold, std::vector<int>(Actions.begin(),
                                        Actions.begin() + Prefix));
        observeAll(Cold, Where + std::to_string(Prefix) + " (cold)", true);
      }
    }
  }
}

} // namespace
