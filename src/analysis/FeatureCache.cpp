//===- analysis/FeatureCache.cpp ------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/FeatureCache.h"

#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"

#include <algorithm>
#include <unordered_set>

using namespace compiler_gym;
using namespace compiler_gym::analysis;
using namespace compiler_gym::ir;

namespace {

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

telemetry::Counter &featureInvalidations(bool ModuleScope) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help = "Feature cache invalidation notifications";
  static telemetry::Counter &Function = M.counter(
      "cg_feature_invalidations_total", {{"scope", "function"}}, Help);
  static telemetry::Counter &Module = M.counter(
      "cg_feature_invalidations_total", {{"scope", "module"}}, Help);
  return ModuleScope ? Module : Function;
}

} // namespace

bool FeatureCache::refresh(const Module &M, Kind K) {
  bool ChangedSet = false;

  // Reconcile the entry map with the module's current function set: new
  // functions get dirty entries, entries for erased functions are dropped
  // (pointer identity only — never dereferenced). This keeps the cache
  // correct even if a transform forgot an explicit erasure notification.
  std::unordered_set<const Function *> Current;
  Current.reserve(M.functions().size());
  for (const auto &F : M.functions()) {
    Current.insert(F.get());
    if (Funcs.try_emplace(F.get()).second)
      ChangedSet = true;
  }
  if (Funcs.size() != Current.size()) {
    for (auto It = Funcs.begin(); It != Funcs.end();) {
      if (!Current.count(It->first)) {
        It = Funcs.erase(It);
        ChangedSet = true;
      } else {
        ++It;
      }
    }
  }

  bool Recomputed = false;
  for (const auto &F : M.functions()) {
    PerFunction &Entry = Funcs.at(F.get());
    bool Fresh = false;
    switch (K) {
    case Kind::InstCount:
      if (!Entry.InstCountValid) {
        Entry.InstCount = instCountFunction(*F);
        Entry.InstCountValid = Fresh = true;
      }
      break;
    case Kind::Autophase:
      if (!Entry.AutophaseValid) {
        Entry.Autophase = autophaseFunction(*F);
        Entry.AutophaseValid = Fresh = true;
      }
      break;
    case Kind::Inst2vec:
      if (!Entry.Inst2vecValid) {
        Entry.Inst2vec = inst2vecFunction(*F);
        Entry.Inst2vecValid = Fresh = true;
      }
      break;
    case Kind::Programl:
      // A clean fragment can still hold a symbolic reference to a
      // function or global that has since been erased (the erasing
      // transform should have dirtied the referencing function;
      // self-heal if it did not). Constants need no check — the module
      // pools only ever grow.
      if (Entry.GraphValid) {
        for (const std::string &Callee : Entry.Graph.Callees)
          if (!M.findFunction(Callee)) {
            Entry.GraphValid = false;
            break;
          }
        if (Entry.GraphValid && !Entry.Graph.Globals.empty()) {
          std::unordered_set<const GlobalVariable *> Globals;
          Globals.reserve(M.globals().size());
          for (const auto &G : M.globals())
            Globals.insert(G.get());
          for (const GlobalVariable *G : Entry.Graph.Globals)
            if (!Globals.count(G)) {
              Entry.GraphValid = false;
              break;
            }
        }
      }
      if (!Entry.GraphValid) {
        Entry.Graph = buildGraphFragment(*F);
        Entry.GraphValid = Fresh = true;
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

const std::vector<int64_t> &FeatureCache::instCount(const Module &M) {
  CG_TRACE_SPAN("feature:InstCount", "analysis");
  featureRequestsTotal().inc();
  // O(1) fast path: nothing invalidated since the last aggregation and the
  // function set has not changed size. (Every notification path —
  // invalidateFunction, functionErased, invalidateAll — clears the flag,
  // so a stale hit would require an unnotified same-size function swap,
  // which the preservation verifier rejects in checked builds.)
  if (InstCountAggValid && Funcs.size() == M.functions().size())
    return InstCountAgg;
  if (refresh(M, Kind::InstCount) || !InstCountAggValid) {
    InstCountAgg.assign(InstCountDims, 0);
    for (const auto &F : M.functions())
      accumulateInstCount(InstCountAgg, Funcs.at(F.get()).InstCount);
    finalizeInstCount(InstCountAgg, M);
    InstCountAggValid = true;
    featureAggregationsTotal().inc();
  }
  return InstCountAgg;
}

const std::vector<int64_t> &FeatureCache::autophase(const Module &M) {
  CG_TRACE_SPAN("feature:Autophase", "analysis");
  featureRequestsTotal().inc();
  if (AutophaseAggValid && Funcs.size() == M.functions().size())
    return AutophaseAgg;
  if (refresh(M, Kind::Autophase) || !AutophaseAggValid) {
    AutophaseAgg.assign(AutophaseDims, 0);
    for (const auto &F : M.functions())
      accumulateAutophase(AutophaseAgg, Funcs.at(F.get()).Autophase);
    finalizeAutophase(AutophaseAgg, M);
    AutophaseAggValid = true;
    featureAggregationsTotal().inc();
  }
  return AutophaseAgg;
}

const std::vector<float> &FeatureCache::inst2vec(const Module &M) {
  CG_TRACE_SPAN("feature:Inst2vec", "analysis");
  featureRequestsTotal().inc();
  if (Inst2vecAggValid && Funcs.size() == M.functions().size())
    return Inst2vecAgg;

  // Snapshot which functions are dirty *before* refresh recomputes their
  // segments: these are the aggregate windows that need patching.
  std::unordered_set<const Function *> DirtyFns;
  for (const auto &F : M.functions()) {
    auto It = Funcs.find(F.get());
    if (It == Funcs.end() || !It->second.Inst2vecValid)
      DirtyFns.insert(F.get());
  }

  if (!refresh(M, Kind::Inst2vec) && Inst2vecAggValid)
    return Inst2vecAgg;

  // In-place splice: valid whenever the previous aggregate covered the
  // same function sequence (every invalidation path only clears flags, so
  // Inst2vecAgg still holds the last layout's content verbatim). Clean
  // segments stay untouched; each dirty window is memcpy'd (same length)
  // or spliced (length change shifts the tail once). A fully-dirty module
  // gains nothing from patching, so it takes the rebuild path.
  size_t N = M.functions().size();
  bool CanSplice = Inst2vecOrder.size() == N && !DirtyFns.empty() &&
                   DirtyFns.size() < N;
  for (size_t I = 0; CanSplice && I < N; ++I)
    CanSplice = Inst2vecOrder[I] == M.functions()[I].get();

  if (CanSplice) {
    ptrdiff_t Shift = 0;
    for (size_t I = 0; I < N; ++I) {
      const Function *F = Inst2vecOrder[I];
      size_t Start = Inst2vecOffsets[I] + Shift;
      if (!DirtyFns.count(F)) {
        Inst2vecOffsets[I] = Start;
        continue;
      }
      // Offsets[I+1] is still the pre-splice layout, so it needs the
      // running Shift; the vector's current size already includes it.
      size_t OldEnd =
          I + 1 < N ? Inst2vecOffsets[I + 1] + Shift : Inst2vecAgg.size();
      const std::vector<float> &Seg = Funcs.at(F).Inst2vec;
      size_t OldLen = OldEnd - Start;
      if (Seg.size() == OldLen) {
        std::copy(Seg.begin(), Seg.end(), Inst2vecAgg.begin() + Start);
      } else if (Seg.size() < OldLen) {
        std::copy(Seg.begin(), Seg.end(), Inst2vecAgg.begin() + Start);
        Inst2vecAgg.erase(Inst2vecAgg.begin() + Start + Seg.size(),
                          Inst2vecAgg.begin() + OldEnd);
      } else {
        std::copy(Seg.begin(), Seg.begin() + OldLen,
                  Inst2vecAgg.begin() + Start);
        Inst2vecAgg.insert(Inst2vecAgg.begin() + OldEnd,
                           Seg.begin() + OldLen, Seg.end());
      }
      Inst2vecOffsets[I] = Start;
      Shift += static_cast<ptrdiff_t>(Seg.size()) -
               static_cast<ptrdiff_t>(OldLen);
    }
  } else {
    size_t Total = 0;
    for (const auto &F : M.functions())
      Total += Funcs.at(F.get()).Inst2vec.size();
    Inst2vecAgg.clear();
    Inst2vecAgg.reserve(Total);
    Inst2vecOrder.resize(N);
    Inst2vecOffsets.resize(N);
    for (size_t I = 0; I < N; ++I) {
      const std::vector<float> &Seg = Funcs.at(M.functions()[I].get()).Inst2vec;
      Inst2vecOrder[I] = M.functions()[I].get();
      Inst2vecOffsets[I] = Inst2vecAgg.size();
      Inst2vecAgg.insert(Inst2vecAgg.end(), Seg.begin(), Seg.end());
    }
  }
  Inst2vecAggValid = true;
  featureAggregationsTotal().inc();
  return Inst2vecAgg;
}

const std::string &FeatureCache::programl(const Module &M) {
  CG_TRACE_SPAN("feature:Programl", "analysis");
  featureRequestsTotal().inc();
  if (ProgramlAggValid && Funcs.size() == M.functions().size())
    return ProgramlAgg;
  if (refresh(M, Kind::Programl) || !ProgramlAggValid) {
    std::vector<const GraphFragment *> Frags;
    Frags.reserve(M.functions().size());
    for (const auto &F : M.functions())
      Frags.push_back(&Funcs.at(F.get()).Graph);
    ProgramlAgg = assembleGraphFragments(M, Frags);
    ProgramlAggValid = true;
    featureAggregationsTotal().inc();
  }
  return ProgramlAgg;
}

const std::vector<int64_t> *
FeatureCache::cachedInstCount(const Function *F) const {
  auto It = Funcs.find(F);
  return It != Funcs.end() && It->second.InstCountValid ? &It->second.InstCount
                                                        : nullptr;
}

const std::vector<int64_t> *
FeatureCache::cachedAutophase(const Function *F) const {
  auto It = Funcs.find(F);
  return It != Funcs.end() && It->second.AutophaseValid ? &It->second.Autophase
                                                        : nullptr;
}

const std::vector<float> *
FeatureCache::cachedInst2vec(const Function *F) const {
  auto It = Funcs.find(F);
  return It != Funcs.end() && It->second.Inst2vecValid ? &It->second.Inst2vec
                                                       : nullptr;
}

const GraphFragment *
FeatureCache::cachedGraphFragment(const Function *F) const {
  auto It = Funcs.find(F);
  return It != Funcs.end() && It->second.GraphValid ? &It->second.Graph
                                                    : nullptr;
}

void FeatureCache::invalidateFunction(const Function *F, unsigned Mask) {
  featureInvalidations(false).inc();
  auto It = Funcs.find(F);
  if (It != Funcs.end()) {
    if (Mask & FS_Counts) {
      It->second.InstCountValid = false;
      It->second.AutophaseValid = false;
    }
    if (Mask & FS_Layout) {
      It->second.Inst2vecValid = false;
      It->second.GraphValid = false;
    }
  }
  if (Mask & FS_Counts) {
    InstCountAggValid = false;
    AutophaseAggValid = false;
  }
  if (Mask & FS_Layout) {
    Inst2vecAggValid = false;
    ProgramlAggValid = false;
  }
}

void FeatureCache::functionReplaced(const Function *From, const Function *To) {
  auto It = Funcs.find(From);
  if (It != Funcs.end()) {
    PerFunction E = std::move(It->second);
    Funcs.erase(It);
    Funcs[To] = std::move(E); // Overwrites a stale entry if the address
                              // was reused by a previous function's copy.
  }
  // Keep the splice layout pointing at the live payload so the in-place
  // Inst2vec patch path still recognizes an unchanged function sequence.
  for (auto &F : Inst2vecOrder)
    if (F == From)
      F = To;
}

void FeatureCache::functionErased(const Function *F) {
  Funcs.erase(F);
  InstCountAggValid = false;
  AutophaseAggValid = false;
  Inst2vecAggValid = false;
  ProgramlAggValid = false;
}

void FeatureCache::invalidateAll(unsigned Mask) {
  featureInvalidations(true).inc();
  for (auto &[F, Entry] : Funcs) {
    if (Mask & FS_Counts) {
      Entry.InstCountValid = false;
      Entry.AutophaseValid = false;
    }
    if (Mask & FS_Layout) {
      Entry.Inst2vecValid = false;
      Entry.GraphValid = false;
    }
  }
  if (Mask & FS_Counts) {
    InstCountAggValid = false;
    AutophaseAggValid = false;
  }
  if (Mask & FS_Layout) {
    Inst2vecAggValid = false;
    ProgramlAggValid = false;
  }
}
