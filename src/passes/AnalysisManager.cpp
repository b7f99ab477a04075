//===- passes/AnalysisManager.cpp -----------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/AnalysisManager.h"

#include "analysis/Autophase.h"
#include "analysis/Inst2vec.h"
#include "analysis/InstCount.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"

#include <algorithm>
#include <string_view>
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

/// Cached per-function results dropped by invalidate(), one per result.
telemetry::Counter &analysisInvalidations(AnalysisKind Kind) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help = "Cached analyses dropped by invalidation";
  static telemetry::Counter &Dom = M.counter(
      "cg_analysis_invalidations_total", {{"kind", "domtree"}}, Help);
  static telemetry::Counter &Loops = M.counter(
      "cg_analysis_invalidations_total", {{"kind", "loops"}}, Help);
  static telemetry::Counter &Features = M.counter(
      "cg_analysis_invalidations_total", {{"kind", "features"}}, Help);
  static telemetry::Counter &Layout = M.counter(
      "cg_analysis_invalidations_total", {{"kind", "layout"}}, Help);
  switch (Kind) {
  case AK_DomTree:
    return Dom;
  case AK_Loops:
    return Loops;
  case AK_Features:
    return Features;
  case AK_Layout:
    return Layout;
  }
  return Layout;
}

telemetry::Counter &featureRequestsTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_feature_requests_total", {}, "Module-level feature requests");
  return C;
}

telemetry::Counter &featureRecomputesTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_feature_recomputes_total", {},
      "Per-function feature segment recomputations");
  return C;
}

telemetry::Counter &featureAggregationsTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_feature_aggregations_total", {},
      "Module-level feature aggregate rebuilds");
  return C;
}

/// Empties \p Slot; 1 if it held a result, else 0.
template <typename T> uint64_t drop(T &Slot) {
  if (!Slot)
    return 0;
  Slot.reset();
  return 1;
}

} // namespace

AnalysisManager::Entry &AnalysisManager::entry(const Function &F) {
  auto [It, Inserted] = Cache.try_emplace(&F);
  if (Inserted)
    staleAggregates(AK_Features | AK_Layout);
  return It->second;
}

void AnalysisManager::staleAggregates(unsigned Kinds) {
  if (Kinds & AK_Features)
    Agg.InstCountValid = Agg.AutophaseValid = false;
  if (Kinds & AK_Layout)
    Agg.Inst2vecValid = Agg.ProgramlValid = false;
}

const DominatorTree &AnalysisManager::domTree(const Function &F) {
  Entry &E = entry(F);
  if (E.DT) {
    analysisLookup("domtree", true).inc();
  } else {
    E.DT = std::make_unique<DominatorTree>(F);
    analysisLookup("domtree", false).inc();
  }
  return *E.DT;
}

const std::vector<NaturalLoop> &AnalysisManager::loops(const Function &F) {
  const DominatorTree &DT = domTree(F);
  Entry &E = Cache.at(&F);
  if (E.Loops) {
    analysisLookup("loops", true).inc();
  } else {
    E.Loops =
        std::make_unique<std::vector<NaturalLoop>>(findNaturalLoops(F, DT));
    analysisLookup("loops", false).inc();
  }
  return *E.Loops;
}

bool AnalysisManager::refresh(const Module &M, Artifact K) {
  bool ChangedSet = false;

  // Reconcile the entry map with the module's current function set: new
  // functions get empty entries, entries for erased functions are dropped
  // (pointer identity only — never dereferenced). This keeps the cache
  // correct even if a transform forgot an explicit erasure notification.
  // The ProGraML check below reads the module's function names and
  // globals, collected here once per refresh.
  std::unordered_set<const Function *> Current;
  std::unordered_set<std::string_view> Names;
  std::unordered_set<const GlobalVariable *> Globals;
  Current.reserve(M.functions().size());
  if (K == Artifact::Programl) {
    Names.reserve(M.functions().size());
    Globals.reserve(M.globals().size());
    for (const auto &G : M.globals())
      Globals.insert(G.get());
  }
  for (const auto &F : M.functions()) {
    Current.insert(F.get());
    if (K == Artifact::Programl)
      Names.insert(F->name());
    if (Cache.try_emplace(F.get()).second)
      ChangedSet = true;
  }
  if (Cache.size() != Current.size()) {
    for (auto It = Cache.begin(); It != Cache.end();) {
      if (!Current.count(It->first)) {
        It = Cache.erase(It);
        ChangedSet = true;
      } else {
        ++It;
      }
    }
  }

  bool Recomputed = false;
  for (const auto &F : M.functions()) {
    Entry &E = Cache.at(F.get());
    bool Fresh = false;
    switch (K) {
    case Artifact::InstCount:
      if (!E.InstCount) {
        E.InstCount = analysis::instCountFunction(*F);
        Fresh = true;
      }
      break;
    case Artifact::Autophase:
      if (!E.Autophase) {
        E.Autophase = analysis::autophaseFunction(*F);
        Fresh = true;
      }
      break;
    case Artifact::Inst2vec:
      if (!E.Inst2vec) {
        E.Inst2vec = analysis::inst2vecFunction(*F);
        Fresh = true;
      }
      break;
    case Artifact::Programl:
      // A clean fragment can still hold a symbolic reference to a
      // function or global that has since been erased (the erasing
      // transform should have dirtied the referencing function;
      // self-heal if it did not). Constants need no check — the module
      // pools only ever grow.
      if (E.Graph &&
          (std::any_of(E.Graph->Callees.begin(), E.Graph->Callees.end(),
                       [&](const std::string &C) { return !Names.count(C); }) ||
           std::any_of(E.Graph->Globals.begin(), E.Graph->Globals.end(),
                       [&](const GlobalVariable *G) {
                         return !Globals.count(G);
                       })))
        E.Graph.reset();
      if (!E.Graph) {
        E.Graph = analysis::buildGraphFragment(*F);
        Fresh = true;
      }
      break;
    }
    if (Fresh) {
      featureRecomputesTotal().inc();
      Recomputed = true;
    }
  }
  return ChangedSet || Recomputed;
}

const std::vector<int64_t> &AnalysisManager::instCount(const Module &M) {
  CG_TRACE_SPAN("feature:InstCount", "analysis");
  featureRequestsTotal().inc();
  // O(1) fast path: nothing invalidated since the last aggregation and the
  // function set has not changed size. (Every invalidation and erasure
  // clears the flag, and so does an entry that domTree/loops create for a
  // function the aggregate has not seen, so a stale hit would require an
  // unnotified same-size function swap, which the preservation verifier
  // rejects in checked builds.)
  if (Agg.InstCountValid && Cache.size() == M.functions().size())
    return Agg.InstCount;
  if (refresh(M, Artifact::InstCount) || !Agg.InstCountValid) {
    Agg.InstCount.assign(analysis::InstCountDims, 0);
    for (const auto &F : M.functions())
      analysis::accumulateInstCount(Agg.InstCount,
                                    *Cache.at(F.get()).InstCount);
    analysis::finalizeInstCount(Agg.InstCount, M);
    Agg.InstCountValid = true;
    featureAggregationsTotal().inc();
  }
  return Agg.InstCount;
}

const std::vector<int64_t> &AnalysisManager::autophase(const Module &M) {
  CG_TRACE_SPAN("feature:Autophase", "analysis");
  featureRequestsTotal().inc();
  if (Agg.AutophaseValid && Cache.size() == M.functions().size())
    return Agg.Autophase;
  if (refresh(M, Artifact::Autophase) || !Agg.AutophaseValid) {
    Agg.Autophase.assign(analysis::AutophaseDims, 0);
    for (const auto &F : M.functions())
      analysis::accumulateAutophase(Agg.Autophase,
                                    *Cache.at(F.get()).Autophase);
    analysis::finalizeAutophase(Agg.Autophase, M);
    Agg.AutophaseValid = true;
    featureAggregationsTotal().inc();
  }
  return Agg.Autophase;
}

const std::vector<float> &AnalysisManager::inst2vec(const Module &M) {
  CG_TRACE_SPAN("feature:Inst2vec", "analysis");
  featureRequestsTotal().inc();
  if (Agg.Inst2vecValid && Cache.size() == M.functions().size())
    return Agg.Inst2vec;

  // Snapshot which functions are dirty *before* refresh recomputes their
  // segments: these are the aggregate windows that need patching.
  std::unordered_set<const Function *> DirtyFns;
  for (const auto &F : M.functions()) {
    auto It = Cache.find(F.get());
    if (It == Cache.end() || !It->second.Inst2vec)
      DirtyFns.insert(F.get());
  }

  if (!refresh(M, Artifact::Inst2vec) && Agg.Inst2vecValid)
    return Agg.Inst2vec;

  // In-place splice: valid whenever the previous aggregate covered the
  // same function sequence (invalidation only clears the valid flag, so
  // Agg.Inst2vec still holds the last layout's content verbatim). Clean
  // segments stay untouched; each dirty window is copied (same length) or
  // spliced (length change shifts the tail once). A fully-dirty module
  // gains nothing from patching, so it takes the rebuild path.
  std::vector<float> &Out = Agg.Inst2vec;
  std::vector<const Function *> &Order = Agg.Inst2vecOrder;
  std::vector<size_t> &Offsets = Agg.Inst2vecOffsets;
  size_t N = M.functions().size();
  bool CanSplice =
      Order.size() == N && !DirtyFns.empty() && DirtyFns.size() < N;
  for (size_t I = 0; CanSplice && I < N; ++I)
    CanSplice = Order[I] == M.functions()[I].get();

  if (CanSplice) {
    ptrdiff_t Shift = 0;
    for (size_t I = 0; I < N; ++I) {
      const Function *F = Order[I];
      size_t Start = Offsets[I] + Shift;
      if (!DirtyFns.count(F)) {
        Offsets[I] = Start;
        continue;
      }
      // Offsets[I+1] is still the pre-splice layout, so it needs the
      // running Shift; the vector's current size already includes it.
      size_t OldEnd = I + 1 < N ? Offsets[I + 1] + Shift : Out.size();
      const std::vector<float> &Seg = *Cache.at(F).Inst2vec;
      size_t OldLen = OldEnd - Start;
      if (Seg.size() == OldLen) {
        std::copy(Seg.begin(), Seg.end(), Out.begin() + Start);
      } else if (Seg.size() < OldLen) {
        std::copy(Seg.begin(), Seg.end(), Out.begin() + Start);
        Out.erase(Out.begin() + Start + Seg.size(), Out.begin() + OldEnd);
      } else {
        std::copy(Seg.begin(), Seg.begin() + OldLen, Out.begin() + Start);
        Out.insert(Out.begin() + OldEnd, Seg.begin() + OldLen, Seg.end());
      }
      Offsets[I] = Start;
      Shift += static_cast<ptrdiff_t>(Seg.size()) -
               static_cast<ptrdiff_t>(OldLen);
    }
  } else {
    size_t Total = 0;
    for (const auto &F : M.functions())
      Total += Cache.at(F.get()).Inst2vec->size();
    Out.clear();
    Out.reserve(Total);
    Order.resize(N);
    Offsets.resize(N);
    for (size_t I = 0; I < N; ++I) {
      const Function *F = M.functions()[I].get();
      const std::vector<float> &Seg = *Cache.at(F).Inst2vec;
      Order[I] = F;
      Offsets[I] = Out.size();
      Out.insert(Out.end(), Seg.begin(), Seg.end());
    }
  }
  Agg.Inst2vecValid = true;
  featureAggregationsTotal().inc();
  return Out;
}

const std::string &AnalysisManager::programl(const Module &M) {
  CG_TRACE_SPAN("feature:Programl", "analysis");
  featureRequestsTotal().inc();
  if (Agg.ProgramlValid && Cache.size() == M.functions().size())
    return Agg.Programl;
  if (refresh(M, Artifact::Programl) || !Agg.ProgramlValid) {
    std::vector<const analysis::GraphFragment *> Frags;
    Frags.reserve(M.functions().size());
    for (const auto &F : M.functions())
      Frags.push_back(&*Cache.at(F.get()).Graph);
    Agg.Programl = analysis::assembleGraphFragments(M, Frags);
    Agg.ProgramlValid = true;
    featureAggregationsTotal().inc();
  }
  return Agg.Programl;
}

void AnalysisManager::invalidate(const Function &F,
                                 const PreservedAnalyses &PA) {
  unsigned Dropped = PA.abandoned();
  if (!Dropped)
    return;
  staleAggregates(Dropped);
  auto It = Cache.find(&F);
  if (It == Cache.end())
    return;
  Entry &E = It->second;
  if (Dropped & AK_DomTree)
    if (uint64_t N = drop(E.DT))
      analysisInvalidations(AK_DomTree).inc(N);
  if (Dropped & AK_Loops)
    if (uint64_t N = drop(E.Loops))
      analysisInvalidations(AK_Loops).inc(N);
  if (Dropped & AK_Features)
    if (uint64_t N = drop(E.InstCount) + drop(E.Autophase))
      analysisInvalidations(AK_Features).inc(N);
  if (Dropped & AK_Layout)
    if (uint64_t N = drop(E.Inst2vec) + drop(E.Graph))
      analysisInvalidations(AK_Layout).inc(N);
}

void AnalysisManager::functionErased(const Function *F) {
  Cache.erase(F);
  staleAggregates(AK_Features | AK_Layout);
}

void AnalysisManager::cowDetached(const Function *Old, const Function *Copy) {
  // A fresh copy has no entry of its own; one under its address is stale
  // (the address was reused after an earlier function was freed).
  Cache.erase(Copy);
  auto Node = Cache.extract(Old);
  if (!Node.empty()) {
    Node.mapped().DT.reset();
    Node.mapped().Loops.reset();
    Node.key() = Copy;
    Cache.insert(std::move(Node));
  }
  // Keep the splice layout pointing at the live payload so the in-place
  // Inst2vec patch path still recognizes an unchanged function sequence.
  std::replace(Agg.Inst2vecOrder.begin(), Agg.Inst2vecOrder.end(), Old, Copy);
}

void AnalysisManager::adoptFrom(const AnalysisManager &O) {
  Cache.clear();
  Cache.reserve(O.Cache.size());
  for (const auto &[F, E] : O.Cache)
    Cache.emplace(F, Entry{.InstCount = E.InstCount,
                           .Autophase = E.Autophase,
                           .Inst2vec = E.Inst2vec,
                           .Graph = E.Graph});
  Agg = O.Agg;
}

bool AnalysisManager::isCached(const Function &F, AnalysisKind Kind) const {
  auto It = Cache.find(&F);
  if (It == Cache.end())
    return false;
  const Entry &E = It->second;
  switch (Kind) {
  case AK_DomTree:
    return E.DT != nullptr;
  case AK_Loops:
    return E.Loops != nullptr;
  case AK_Features:
    return E.InstCount || E.Autophase;
  case AK_Layout:
    return E.Inst2vec || E.Graph;
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
  // A cached CFG analysis whose function is no longer in the module means
  // a pass erased a function without functionErased() — a dangling-pointer
  // lie. (Observation artifacts of such a function self-heal.)
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
    if (It == Cache.end())
      continue;
    const Entry &E = It->second;
    // A fresh dominator tree is needed to check either CFG analysis: a
    // cached loop set without a cached tree (preserve(AK_Loops) alone)
    // must not escape verification.
    if (E.DT || E.Loops) {
      DominatorTree Fresh(*F);
      if (E.DT && !E.DT->structurallyEquals(*F, Fresh))
        return internalError("pass '" + PassName +
                        "' claimed to preserve the dominator tree of '" +
                        F->name() + "' but changed the CFG");
      if (E.Loops && !sameLoops(*E.Loops, findNaturalLoops(*F, Fresh)))
        return internalError("pass '" + PassName +
                        "' claimed to preserve loop info of '" + F->name() +
                        "' but changed the loop structure");
    }
    if (E.InstCount && *E.InstCount != analysis::instCountFunction(*F))
      return internalError("pass '" + PassName +
                      "' claimed to preserve features of '" + F->name() +
                      "' but the InstCount vector changed");
    if (E.Autophase && *E.Autophase != analysis::autophaseFunction(*F))
      return internalError("pass '" + PassName +
                      "' claimed to preserve features of '" + F->name() +
                      "' but the Autophase vector changed");
    if (E.Inst2vec && *E.Inst2vec != analysis::inst2vecFunction(*F))
      return internalError("pass '" + PassName +
                      "' claimed to preserve layout of '" + F->name() +
                      "' but the Inst2vec embedding changed");
    if (E.Graph) {
      analysis::GraphFragment Fresh = analysis::buildGraphFragment(*F);
      if (E.Graph->Bytes != Fresh.Bytes || E.Graph->Callees != Fresh.Callees ||
          E.Graph->Globals != Fresh.Globals ||
          E.Graph->Constants != Fresh.Constants)
        return internalError("pass '" + PassName +
                        "' claimed to preserve layout of '" + F->name() +
                        "' but the ProGraML fragment changed");
    }
  }
  return Status::ok();
}
