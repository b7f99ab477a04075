//===- envs/llvm/LlvmSession.cpp ------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "envs/llvm/LlvmSession.h"

#include "analysis/Autophase.h"
#include "analysis/InstCount.h"
#include "analysis/Inst2vec.h"
#include "analysis/ProGraML.h"
#include "analysis/Rewards.h"
#include "fault/FaultRegistry.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Snapshot.h"
#include "passes/Pipelines.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Hash.h"

#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::envs;
using namespace compiler_gym::service;

namespace {

/// Process-wide LRU cache of parsed benchmark modules. A cache hit turns
/// environment initialization into a clone — the O(1)-amortized init the
/// paper measures in Table II.
class BenchmarkCache {
public:
  static BenchmarkCache &instance() {
    static BenchmarkCache Cache;
    return Cache;
  }

  std::unique_ptr<ir::Module> parse(const datasets::Benchmark &Bench,
                                    Status &Err) {
    uint64_t Key = hashCombine(fnv1a(Bench.Uri), fnv1a(Bench.IrText));
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Map.find(Key);
      if (It != Map.end()) {
        ++Hits;
        Lru.splice(Lru.begin(), Lru, It->second.LruIt);
        // Structural sharing: the session's module aliases the cached
        // master's function payloads; the pass layer copies a function
        // on first write. Init cost drops from O(|module|) to
        // O(#functions).
        return It->second.Mod->share();
      }
      ++Misses;
    }
    StatusOr<std::unique_ptr<ir::Module>> Parsed =
        ir::parseModule(Bench.IrText);
    if (!Parsed.isOk()) {
      Err = Parsed.status();
      return nullptr;
    }
    std::unique_ptr<ir::Module> Mod = Parsed.takeValue();
    std::unique_ptr<ir::Module> Shared = Mod->share();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Lru.push_front(Key);
      Map[Key] = Entry{std::move(Mod), Lru.begin()};
      while (Map.size() > Capacity) {
        Map.erase(Lru.back());
        Lru.pop_back();
      }
    }
    return Shared;
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Map.clear();
    Lru.clear();
    Hits = Misses = 0;
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  struct Entry {
    std::unique_ptr<ir::Module> Mod;
    std::list<uint64_t>::iterator LruIt;
  };
  static constexpr size_t Capacity = 64;
  std::mutex Mutex;
  std::unordered_map<uint64_t, Entry> Map;
  std::list<uint64_t> Lru;
  uint64_t Hits = 0, Misses = 0;
};

/// Observation-space ids: dense indices into the dispatch and memo tables.
enum LlvmObs : int {
  ObsIr = 0,
  ObsIrHash,
  ObsInstCount,
  ObsAutophase,
  ObsInst2vec,
  ObsPrograml,
  ObsIrInstructionCount,
  ObsIrInstructionCountOz,
  ObsObjectTextSizeBytes,
  ObsObjectTextSizeOz,
  ObsRuntime,
  ObsRuntimeO3,
};

/// Single source of truth for the observation spaces: the advertised list
/// (typed descriptors with shape/range where statically known), the
/// name->handler dispatch table and the memoization policy all derive
/// from this table, so adding a space is exactly one entry here plus its
/// case in computeObservationUncached.
struct SpaceDesc {
  const char *Name;
  LlvmObs Id;
  ObservationType Type;
  bool Deterministic;
  bool PlatformDependent;
  int64_t ShapeDim;   ///< Fixed vector length; 0 = scalar/dynamic.
  bool NonNegative;   ///< Element range is [0, +inf).
};

constexpr SpaceDesc SpaceTable[] = {
    {"Ir", ObsIr, ObservationType::String, true, false, 0, false},
    {"IrHash", ObsIrHash, ObservationType::String, true, false, 0, false},
    {"InstCount", ObsInstCount, ObservationType::Int64List, true, false,
     analysis::InstCountDims, true},
    {"Autophase", ObsAutophase, ObservationType::Int64List, true, false,
     analysis::AutophaseDims, true},
    {"Inst2vec", ObsInst2vec, ObservationType::DoubleList, true, false, 0,
     false},
    {"Programl", ObsPrograml, ObservationType::Binary, true, false, 0,
     false},
    {"IrInstructionCount", ObsIrInstructionCount,
     ObservationType::Int64Value, true, false, 0, true},
    {"IrInstructionCountOz", ObsIrInstructionCountOz,
     ObservationType::Int64Value, true, false, 0, true},
    {"ObjectTextSizeBytes", ObsObjectTextSizeBytes,
     ObservationType::Int64Value, true, true, 0, true},
    {"ObjectTextSizeOz", ObsObjectTextSizeOz, ObservationType::Int64Value,
     true, true, 0, true},
    {"Runtime", ObsRuntime, ObservationType::DoubleValue, false, true, 0,
     true},
    {"RuntimeO3", ObsRuntimeO3, ObservationType::DoubleValue, false, true,
     0, true},
};

/// Name -> table index, built once per process.
const std::unordered_map<std::string, int> &spaceIndex() {
  static const std::unordered_map<std::string, int> Index = [] {
    std::unordered_map<std::string, int> M;
    for (int I = 0; I < static_cast<int>(std::size(SpaceTable)); ++I)
      M.emplace(SpaceTable[I].Name, I);
    return M;
  }();
  return Index;
}

std::vector<ObservationSpaceInfo> llvmObservationSpaces() {
  // Built once; getObservationSpaces() is called per step-with-observation
  // request in CompilerService, so callers get a copy of this static list
  // instead of twelve rebuilt-and-allocated entries each time.
  static const std::vector<ObservationSpaceInfo> Spaces = [] {
    std::vector<ObservationSpaceInfo> S;
    S.reserve(std::size(SpaceTable));
    for (const SpaceDesc &D : SpaceTable) {
      ObservationSpaceInfo O;
      O.Name = D.Name;
      O.Type = D.Type;
      if (D.ShapeDim > 0)
        O.Shape = {D.ShapeDim};
      if (D.NonNegative)
        O.RangeMin = 0.0;
      O.Deterministic = D.Deterministic;
      O.PlatformDependent = D.PlatformDependent;
      S.push_back(std::move(O));
    }
    return S;
  }();
  return Spaces;
}

} // namespace

LlvmSession::LlvmSession() = default;

uint64_t LlvmSession::cacheHits() { return BenchmarkCache::instance().hits(); }
uint64_t LlvmSession::cacheMisses() {
  return BenchmarkCache::instance().misses();
}
void LlvmSession::clearBenchmarkCache() { BenchmarkCache::instance().clear(); }

std::vector<ActionSpace> LlvmSession::getActionSpaces() {
  ActionSpace Space;
  Space.Name = "llvm-passes-v0";
  Space.ActionNames = passes::PassRegistry::instance().defaultActionNames();
  return {Space};
}

std::vector<ObservationSpaceInfo> LlvmSession::getObservationSpaces() {
  return llvmObservationSpaces();
}

void LlvmSession::rebindModule() {
  PM = Mod ? std::make_unique<passes::PassManager>(*Mod) : nullptr;
  ModEpoch = 0;
  CachedStateKey.reset();
  ObsMemo.clear();
}

Status LlvmSession::init(const ActionSpace &Space,
                         const datasets::Benchmark &Bench) {
  ActionNames = Space.ActionNames;
  this->Bench = Bench;
  Status Err;
  Mod = BenchmarkCache::instance().parse(Bench, Err);
  if (!Mod)
    return Err;
  rebindModule();
  NoiseGen.reseed(fnv1a(Bench.Uri) ^ 0x9E3779B97F4A7C15ull);
  return Status::ok();
}

Status LlvmSession::applyAction(const Action &A, bool &EndOfEpisode,
                                bool &ActionSpaceChanged) {
  EndOfEpisode = false;
  ActionSpaceChanged = false;
  if (!Mod)
    return failedPrecondition("session not initialized");
  if (A.Index < 0 || static_cast<size_t>(A.Index) >= ActionNames.size())
    return outOfRange("action " + std::to_string(A.Index) +
                      " out of range [0, " +
                      std::to_string(ActionNames.size()) + ")");
  // Cooperative cancellation: a token is attached only while an RPC with a
  // deadline (or a watchdog abort) is in flight; the fault-free path costs
  // a null check and two pointer stores.
  const util::CancelToken *Tok = cancelToken();
  if (Tok && Tok->poll())
    return cancelRollback("action cancelled before execution");
  PM->setCancelToken(Tok);
  StatusOr<bool> R = PM->run(ActionNames[A.Index]);
  PM->setCancelToken(nullptr);
  if (!R.isOk()) {
    // A deadline abort may have left a partially transformed module
    // (FunctionPass stops between functions); revert to the last
    // committed state so the cancelled request has no observable effect.
    if (R.status().code() == StatusCode::DeadlineExceeded)
      return cancelRollback(R.status().message());
    return R.status();
  }
  if (*R) {
    ++ModEpoch;
    CachedStateKey.reset();
  }
  return Status::ok();
}

Status LlvmSession::cancelRollback(const std::string &Why) {
  // The last stateKey() exposure published a snapshot (stateKey() does so
  // for every new key), so restoring it is an O(#functions) share — no
  // per-action defensive copies on the fault-free path. Before any
  // exposure the initial state is the committed one: re-parse (a
  // benchmark-cache hit).
  if (!LastExposedKey || !restore(LastExposedKey)) {
    Status Err;
    Mod = BenchmarkCache::instance().parse(Bench, Err);
    rebindModule();
  }
  return deadlineExceeded(Why);
}

Status LlvmSession::computeBaselines() {
  if (OzInstructionCount >= 0)
    return Status::ok();
  Status Err;
  std::unique_ptr<ir::Module> Fresh =
      BenchmarkCache::instance().parse(Bench, Err);
  if (!Fresh)
    return Err;
  // Share, not clone: the -Oz / -O3 pipelines copy-on-write what they
  // actually touch.
  std::unique_ptr<ir::Module> O3 = Fresh->share();
  CG_RETURN_IF_ERROR(passes::runOptimizationLevel(*Fresh, "-Oz"));
  OzInstructionCount = analysis::codeSize(*Fresh);
  OzTextSize = analysis::binarySize(*Fresh);
  if (Bench.Runnable) {
    CG_RETURN_IF_ERROR(passes::runOptimizationLevel(*O3, "-O3"));
    analysis::RuntimeOptions ROpts;
    ROpts.Interp.Args = Bench.Inputs;
    CG_ASSIGN_OR_RETURN(O3Runtime, analysis::measureRuntime(*O3, NoiseGen,
                                                            ROpts));
  }
  return Status::ok();
}

Status LlvmSession::computeObservation(const ObservationSpaceInfo &Space,
                                       Observation &Out) {
  if (!Mod)
    return failedPrecondition("session not initialized");
  const auto &Index = spaceIndex();
  auto It = Index.find(Space.Name);
  if (It == Index.end())
    return notFound("unknown observation space '" + Space.Name + "'");
  const SpaceDesc &Desc = SpaceTable[It->second];
  Out.Type = Space.Type;

  // Session-level memo: a deterministic observation of an unchanged module
  // is a lookup, not a recompute. (The runtime's shared ObservationCache
  // deduplicates *across* sessions via stateKey(); this handles the
  // overwhelmingly common within-session repeat without hashing at all.)
  if (Desc.Deterministic) {
    auto MemoIt = ObsMemo.find(Desc.Id);
    if (MemoIt != ObsMemo.end() && MemoIt->second.first == ModEpoch) {
      Out = MemoIt->second.second;
      Out.Type = Space.Type;
      ++ObsMemoHits;
      static telemetry::Counter &MemoHits =
          telemetry::MetricsRegistry::global().counter(
              "cg_session_obs_memo_hits_total", {},
              "Within-session deterministic observation memo hits");
      MemoHits.inc();
      return Status::ok();
    }
  }

  CG_RETURN_IF_ERROR(computeObservationUncached(Desc.Id, Space, Out));
  if (Desc.Deterministic)
    ObsMemo[Desc.Id] = {ModEpoch, Out};
  return Status::ok();
}

Status
LlvmSession::computeObservationUncached(int SpaceId,
                                        const ObservationSpaceInfo &Space,
                                        Observation &Out) {
  switch (static_cast<LlvmObs>(SpaceId)) {
  case ObsIr:
    Out.Str = ir::printModule(*Mod);
    return Status::ok();
  case ObsIrHash:
    Out.Str = Mod->hash().hex();
    return Status::ok();
  case ObsInstCount:
    // Served from the per-function feature cache: only functions dirtied
    // since the last request are recounted.
    Out.Ints = PM->analysisManager().features().instCount(*Mod);
    return Status::ok();
  case ObsAutophase:
    Out.Ints = PM->analysisManager().features().autophase(*Mod);
    return Status::ok();
  case ObsInst2vec: {
    // Per-function embedding segments: only dirtied functions re-embed.
    const std::vector<float> &E = PM->analysisManager().features().inst2vec(*Mod);
    Out.Doubles.assign(E.begin(), E.end());
    return Status::ok();
  }
  case ObsPrograml:
    // Assembled from per-function graph fragments (v2 encoding): only
    // dirtied functions rebuild their subgraph, and the serialized bytes
    // stay stable outside the changed function's region, which keeps
    // wire deltas small.
    Out.Str = PM->analysisManager().features().programl(*Mod);
    return Status::ok();
  case ObsIrInstructionCount:
    Out.IntValue = analysis::codeSize(*Mod);
    return Status::ok();
  case ObsObjectTextSizeBytes:
    Out.IntValue = analysis::binarySize(*Mod);
    return Status::ok();
  case ObsIrInstructionCountOz:
    CG_RETURN_IF_ERROR(computeBaselines());
    Out.IntValue = OzInstructionCount;
    return Status::ok();
  case ObsObjectTextSizeOz:
    CG_RETURN_IF_ERROR(computeBaselines());
    Out.IntValue = OzTextSize;
    return Status::ok();
  case ObsRuntime: {
    if (!Bench.Runnable)
      return failedPrecondition("benchmark '" + Bench.Uri +
                                "' is not runnable");
    analysis::RuntimeOptions ROpts;
    ROpts.Interp.Args = Bench.Inputs;
    CG_ASSIGN_OR_RETURN(Out.DoubleValue,
                        analysis::measureRuntime(*Mod, NoiseGen, ROpts));
    return Status::ok();
  }
  case ObsRuntimeO3:
    if (!Bench.Runnable)
      return failedPrecondition("benchmark '" + Bench.Uri +
                                "' is not runnable");
    CG_RETURN_IF_ERROR(computeBaselines());
    Out.DoubleValue = O3Runtime;
    return Status::ok();
  }
  return notFound("unknown observation space '" + Space.Name + "'");
}

uint64_t LlvmSession::stateKey() {
  if (!Mod)
    return 0;
  if (!CachedStateKey) {
    // Benchmark URI disambiguates baseline-relative observations (e.g.
    // IrInstructionCountOz) between benchmarks whose IR happens to
    // coincide. Hashing walks the whole module, so the digest is cached
    // per action epoch rather than recomputed per request.
    uint64_t Key = hashCombine(fnv1a(Bench.Uri), Mod->hash().low64());
    CachedStateKey = Key ? Key : 1;
    // Every newly keyed state is published as a restorable snapshot: a
    // frozen structural share, O(#functions) to publish. This is what a
    // recovering environment restores instead of replaying its actions.
    ir::SnapshotStore::global().put(*CachedStateKey, Mod->share(),
                                    Bench.Uri);
  }
  LastExposedKey = *CachedStateKey;
  return *CachedStateKey;
}

bool LlvmSession::restore(uint64_t StateKey) {
  if (!StateKey)
    return false;
  // Chaos hook: error/crash rules simulate a lost or unreadable snapshot,
  // pushing the recovering client onto the replay path.
  if (fault::FaultAction F = CG_FAULT_POINT("snapshot.restore", cancelToken()))
    if (F.isError() || F.isCrash() || F.isCorrupt())
      return false;
  std::optional<ir::Snapshot> Snap = ir::SnapshotStore::global().get(StateKey);
  if (!Snap)
    return false;
  Mod = Snap->Mod->share();
  rebindModule();
  // The restored module is bit-identical to the state the key addresses;
  // skip re-walking it to recover the digest.
  CachedStateKey = StateKey;
  LastExposedKey = StateKey;
  return true;
}

StatusOr<std::unique_ptr<CompilationSession>> LlvmSession::fork() {
  static telemetry::Histogram &ForkLatency =
      telemetry::MetricsRegistry::global().histogram(
          "cg_env_fork_latency_us", {},
          "Environment fork latency (structural share + cache adoption)");
  telemetry::ScopedTimerUs Timer(ForkLatency);
  auto Clone = std::make_unique<LlvmSession>();
  Clone->ActionNames = ActionNames;
  Clone->Bench = Bench;
  // O(#functions): the fork aliases every function payload; divergence is
  // paid lazily, per mutated function, by the pass layer's copy-on-write.
  Clone->Mod = Mod ? Mod->share() : nullptr;
  Clone->rebindModule();
  if (PM && Clone->PM) {
    // Shared clean payloads mean the parent's cached dominator trees,
    // loop sets and feature vectors remain valid in the child.
    Clone->PM->analysisManager().adoptFrom(PM->analysisManager());
  }
  Clone->ModEpoch = ModEpoch;
  Clone->CachedStateKey = CachedStateKey;
  Clone->LastExposedKey = LastExposedKey;
  Clone->ObsMemo = ObsMemo;
  Clone->NoiseGen = NoiseGen.split();
  Clone->OzInstructionCount = OzInstructionCount;
  Clone->OzTextSize = OzTextSize;
  Clone->O3Runtime = O3Runtime;
  return StatusOr<std::unique_ptr<CompilationSession>>(std::move(Clone));
}

void envs::registerLlvmEnvironment() {
  static std::once_flag Flag;
  std::call_once(Flag, [] {
    service::registerCompilationSession(
        "llvm", [] { return std::make_unique<LlvmSession>(); });
  });
}
