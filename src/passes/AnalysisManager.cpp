//===- passes/AnalysisManager.cpp -----------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/AnalysisManager.h"

#include "telemetry/MetricsRegistry.h"

#include <algorithm>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::passes;
using namespace compiler_gym::ir;

namespace {

/// Lookups across every manager, labeled by analysis kind and outcome.
telemetry::Counter &analysisLookup(const char *Kind, bool Hit) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help = "Analysis cache lookups by kind and outcome";
  static telemetry::Counter &DomHit = M.counter(
      "cg_analysis_lookups_total",
      {{"kind", "domtree"}, {"outcome", "hit"}}, Help);
  static telemetry::Counter &DomCompute = M.counter(
      "cg_analysis_lookups_total",
      {{"kind", "domtree"}, {"outcome", "compute"}}, Help);
  static telemetry::Counter &LoopHit = M.counter(
      "cg_analysis_lookups_total", {{"kind", "loops"}, {"outcome", "hit"}},
      Help);
  static telemetry::Counter &LoopCompute = M.counter(
      "cg_analysis_lookups_total",
      {{"kind", "loops"}, {"outcome", "compute"}}, Help);
  if (Kind[0] == 'd')
    return Hit ? DomHit : DomCompute;
  return Hit ? LoopHit : LoopCompute;
}

telemetry::Counter &analysisInvalidations(const char *Kind) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help = "Cached analyses dropped by invalidation";
  static telemetry::Counter &Dom = M.counter(
      "cg_analysis_invalidations_total", {{"kind", "domtree"}}, Help);
  static telemetry::Counter &Loops = M.counter(
      "cg_analysis_invalidations_total", {{"kind", "loops"}}, Help);
  if (Kind[0] == 'd')
    return Dom;
  return Loops;
}

telemetry::Counter &domTreeUpdates(bool Incremental) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help =
      "Dominator trees built (full) or patched in place (incremental)";
  static telemetry::Counter &Inc = M.counter(
      "cg_domtree_updates_total", {{"kind", "incremental"}}, Help);
  static telemetry::Counter &Full =
      M.counter("cg_domtree_updates_total", {{"kind", "full"}}, Help);
  return Incremental ? Inc : Full;
}

} // namespace

const DominatorTree &AnalysisManager::domTree(const Function &F) {
  Entry &E = Cache[&F];
  if (E.DT) {
    analysisLookup("domtree", true).inc();
  } else {
    E.DT = std::make_unique<DominatorTree>(F);
    analysisLookup("domtree", false).inc();
    domTreeUpdates(false).inc();
  }
  return *E.DT;
}

const std::vector<NaturalLoop> &AnalysisManager::loops(const Function &F) {
  const DominatorTree &DT = domTree(F);
  Entry &E = Cache[&F];
  if (E.Loops) {
    analysisLookup("loops", true).inc();
  } else {
    E.Loops =
        std::make_unique<std::vector<NaturalLoop>>(findNaturalLoops(F, DT));
    analysisLookup("loops", false).inc();
  }
  return *E.Loops;
}

namespace {

/// Maps abandoned AK_Features/AK_Layout bits to the FeatureCache mask.
unsigned featureMaskFor(const PreservedAnalyses &PA) {
  unsigned Mask = 0;
  if (!PA.preserves(AK_Features))
    Mask |= analysis::FS_Counts;
  if (!PA.preserves(AK_Layout))
    Mask |= analysis::FS_Layout;
  return Mask;
}

} // namespace

void AnalysisManager::invalidate(const Function &F,
                                 const PreservedAnalyses &PA) {
  unsigned Dropped = PA.abandoned();
  if (Dropped & (AK_DomTree | AK_Loops)) {
    auto It = Cache.find(&F);
    if (It != Cache.end()) {
      if (!(PA.preserves(AK_DomTree)) && It->second.DT) {
        It->second.DT.reset();
        analysisInvalidations("domtree").inc();
      }
      if (!(PA.preserves(AK_Loops)) && It->second.Loops) {
        It->second.Loops.reset();
        analysisInvalidations("loops").inc();
      }
    }
  }
  if (unsigned Mask = featureMaskFor(PA))
    Features.invalidateFunction(&F, Mask);
}

void AnalysisManager::invalidateAll(const PreservedAnalyses &PA) {
  if (!PA.preserves(AK_DomTree) || !PA.preserves(AK_Loops)) {
    for (auto &[F, E] : Cache) {
      if (!PA.preserves(AK_DomTree) && E.DT) {
        E.DT.reset();
        analysisInvalidations("domtree").inc();
      }
      if (!PA.preserves(AK_Loops) && E.Loops) {
        E.Loops.reset();
        analysisInvalidations("loops").inc();
      }
    }
  }
  if (unsigned Mask = featureMaskFor(PA))
    Features.invalidateAll(Mask);
}

void AnalysisManager::functionErased(const Function *F) {
  Cache.erase(F);
  CowStash.erase(F);
  Features.functionErased(F);
}

void AnalysisManager::cowDetached(const Function *Old, const Function *Copy) {
  auto It = Cache.find(Old);
  if (It != Cache.end()) {
    CowStash[Old] = std::move(It->second);
    Cache.erase(It);
  }
  Features.functionReplaced(Old, Copy);
}

void AnalysisManager::cowReverted(const Function *Copy, const Function *Old) {
  // Analyses computed against the short-lived copy would dangle.
  Cache.erase(Copy);
  Features.functionReplaced(Copy, Old);
  auto It = CowStash.find(Old);
  if (It != CowStash.end()) {
    Cache[Old] = std::move(It->second);
    CowStash.erase(It);
  }
}

void AnalysisManager::cowCommitted(const Function *Old) {
  CowStash.erase(Old);
}

void AnalysisManager::adoptFrom(const AnalysisManager &O) {
  Cache.clear();
  CowStash.clear();
  for (const auto &[F, E] : O.Cache) {
    Entry &N = Cache[F];
    if (E.DT)
      N.DT = std::make_unique<DominatorTree>(*E.DT);
    if (E.Loops)
      N.Loops = std::make_unique<std::vector<NaturalLoop>>(*E.Loops);
  }
  Features = O.Features;
}

void AnalysisManager::blockMerged(const Function &F, BasicBlock *Into,
                                  const BasicBlock *Gone) {
  auto It = Cache.find(&F);
  if (It == Cache.end() || !It->second.DT)
    return;
  It->second.DT->applyBlockMerged(Into, Gone);
  domTreeUpdates(true).inc();
}

bool AnalysisManager::isCached(const Function &F, AnalysisKind Kind) const {
  switch (Kind) {
  case AK_DomTree: {
    auto It = Cache.find(&F);
    return It != Cache.end() && It->second.DT != nullptr;
  }
  case AK_Loops: {
    auto It = Cache.find(&F);
    return It != Cache.end() && It->second.Loops != nullptr;
  }
  case AK_Features:
    return Features.cachedInstCount(&F) != nullptr ||
           Features.cachedAutophase(&F) != nullptr;
  case AK_Layout:
    return Features.cachedInst2vec(&F) != nullptr ||
           Features.cachedGraphFragment(&F) != nullptr;
  }
  return false;
}

namespace {

bool sameLoops(const std::vector<NaturalLoop> &Cached,
               const std::vector<NaturalLoop> &Fresh) {
  if (Cached.size() != Fresh.size())
    return false;
  for (size_t I = 0; I < Cached.size(); ++I) {
    if (Cached[I].Header != Fresh[I].Header ||
        Cached[I].Latches != Fresh[I].Latches ||
        Cached[I].Blocks != Fresh[I].Blocks)
      return false;
  }
  return true;
}

} // namespace

Status AnalysisManager::verifyCachedAnalyses(const Module &M,
                                             const std::string &PassName) {
  // A cached entry whose function is no longer in the module means a pass
  // erased a function without functionErased() — a dangling-pointer lie.
  std::unordered_set<const Function *> Current;
  for (const auto &F : M.functions())
    Current.insert(F.get());
  for (const auto &[F, E] : Cache)
    if ((E.DT || E.Loops) && !Current.count(F))
      return internalError("pass '" + PassName +
                      "' erased a function without notifying the "
                      "AnalysisManager");

  for (const auto &F : M.functions()) {
    auto It = Cache.find(F.get());
    // A fresh dominator tree is needed to check either CFG analysis: a
    // cached loop set without a cached tree (preserve(AK_Loops) alone)
    // must not escape verification.
    if (It != Cache.end() && (It->second.DT || It->second.Loops)) {
      DominatorTree Fresh(*F);
      if (It->second.DT && !It->second.DT->structurallyEquals(*F, Fresh))
        return internalError("pass '" + PassName +
                        "' claimed to preserve the dominator tree of '" +
                        F->name() + "' but changed the CFG");
      if (It->second.Loops &&
          !sameLoops(*It->second.Loops, findNaturalLoops(*F, Fresh)))
        return internalError("pass '" + PassName +
                        "' claimed to preserve loop info of '" + F->name() +
                        "' but changed the loop structure");
    }
    if (const std::vector<int64_t> *IC = Features.cachedInstCount(F.get()))
      if (*IC != analysis::instCountFunction(*F))
        return internalError("pass '" + PassName +
                        "' claimed to preserve features of '" + F->name() +
                        "' but the InstCount vector changed");
    if (const std::vector<int64_t> *AP = Features.cachedAutophase(F.get()))
      if (*AP != analysis::autophaseFunction(*F))
        return internalError("pass '" + PassName +
                        "' claimed to preserve features of '" + F->name() +
                        "' but the Autophase vector changed");
    if (const std::vector<float> *E = Features.cachedInst2vec(F.get()))
      if (*E != analysis::inst2vecFunction(*F))
        return internalError("pass '" + PassName +
                        "' claimed to preserve layout of '" + F->name() +
                        "' but the Inst2vec embedding changed");
    if (const analysis::GraphFragment *G =
            Features.cachedGraphFragment(F.get())) {
      analysis::GraphFragment Fresh = analysis::buildGraphFragment(*F);
      if (G->Bytes != Fresh.Bytes || G->Callees != Fresh.Callees ||
          G->Globals != Fresh.Globals || G->Constants != Fresh.Constants)
        return internalError("pass '" + PassName +
                        "' claimed to preserve layout of '" + F->name() +
                        "' but the ProGraML fragment changed");
    }
  }
  return Status::ok();
}
