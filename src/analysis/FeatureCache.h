//===- analysis/FeatureCache.h - Incremental feature vectors ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental maintenance of the per-function-decomposable observation
/// spaces: InstCount, Autophase, Inst2vec and ProGraML. Each keeps one
/// artifact per function and recomputes only functions an optimization
/// pass invalidated, so an observation after a single-function transform
/// costs one function scan plus a cheap aggregation instead of a
/// whole-module rescan (the per-observation cost the paper's Table III
/// measures on the step hot path):
///  * InstCount/Autophase — per-function count vectors, aggregated by
///    sum/max (see InstCount.h).
///  * Inst2vec — per-function embedding segments, aggregated by
///    concatenation in module function order.
///  * ProGraML — per-function GraphFragments with symbolic cross-function
///    references, assembled into the byte-stable v2 wire encoding
///    (see ProGraML.h).
///
/// Invalidation is driven externally — the pass layer's AnalysisManager
/// forwards PreservedAnalyses reports here. The cache is also self-healing
/// against function-set changes: aggregation drops entries for functions no
/// longer in the module and creates dirty entries for new ones. Not
/// thread-safe; one cache per session, like one module per session.
/// Requests, per-function recomputes and aggregate rebuilds are counted in
/// cg_feature_requests_total, cg_feature_recomputes_total and
/// cg_feature_aggregations_total.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_ANALYSIS_FEATURECACHE_H
#define COMPILER_GYM_ANALYSIS_FEATURECACHE_H

#include "analysis/Autophase.h"
#include "analysis/InstCount.h"
#include "analysis/Inst2vec.h"
#include "analysis/ProGraML.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace analysis {

/// Which artifact families an invalidation hits. Counts (InstCount,
/// Autophase) are order-insensitive; layout artifacts (Inst2vec, ProGraML)
/// also change under pure reordering. The pass layer maps its
/// AK_Features/AK_Layout preservation bits onto this mask.
enum FeatureSet : unsigned {
  FS_Counts = 1u << 0,
  FS_Layout = 1u << 1,
  FS_All = FS_Counts | FS_Layout,
};

/// Lazily maintained per-function observation artifacts for one module.
class FeatureCache {
public:
  /// The aggregated 70-D InstCount vector; byte-equal to
  /// analysis::instCount(M) computed from scratch.
  const std::vector<int64_t> &instCount(const ir::Module &M);

  /// The aggregated 56-D Autophase vector; byte-equal to
  /// analysis::autophase(M) computed from scratch.
  const std::vector<int64_t> &autophase(const ir::Module &M);

  /// The concatenated (#instructions x 200) embedding matrix; bit-equal to
  /// analysis::inst2vec(M) computed from scratch.
  const std::vector<float> &inst2vec(const ir::Module &M);

  /// The serialized ProGraML graph (v2 fragment-sectioned encoding);
  /// deserializeGraph(result) equals buildProgramGraph(M). The returned
  /// bytes are byte-stable outside regions owned by changed functions,
  /// which is what makes delta-encoded Programl replies small.
  const std::string &programl(const ir::Module &M);

  /// Marks one function's artifacts in \p Mask stale (a pass changed its
  /// body; FS_Layout alone for pure reorderings).
  void invalidateFunction(const ir::Function *F, unsigned Mask = FS_All);

  /// Drops a function's entry entirely (the function was erased).
  void functionErased(const ir::Function *F);

  /// Rekeys \p From's cached artifacts to \p To after a copy-on-write
  /// payload replacement. The copy is structurally identical at rekey
  /// time, so every value-based artifact (count vectors, embedding
  /// segment, graph fragment — whose cross-function references are
  /// symbolic) stays valid under the new key, and the aggregates are not
  /// disturbed.
  void functionReplaced(const ir::Function *From, const ir::Function *To);

  /// Marks every function's artifacts in \p Mask stale (module-level
  /// transform).
  void invalidateAll(unsigned Mask = FS_All);

  /// Verification hooks: the cached per-function artifact when valid, else
  /// nullptr. Used by the pass layer's preservation checker to compare
  /// cache contents against a from-scratch recount.
  const std::vector<int64_t> *cachedInstCount(const ir::Function *F) const;
  const std::vector<int64_t> *cachedAutophase(const ir::Function *F) const;
  const std::vector<float> *cachedInst2vec(const ir::Function *F) const;
  const GraphFragment *cachedGraphFragment(const ir::Function *F) const;

private:
  enum class Kind { InstCount, Autophase, Inst2vec, Programl };

  struct PerFunction {
    std::vector<int64_t> InstCount;
    std::vector<int64_t> Autophase;
    std::vector<float> Inst2vec;
    GraphFragment Graph;
    bool InstCountValid = false;
    bool AutophaseValid = false;
    bool Inst2vecValid = false;
    bool GraphValid = false;
  };

  /// Refreshes the function-entry map against the module's current function
  /// set and recomputes dirty per-function artifacts for one feature kind.
  /// Returns true if anything changed (=> aggregate must be rebuilt).
  bool refresh(const ir::Module &M, Kind K);

  std::unordered_map<const ir::Function *, PerFunction> Funcs;
  std::vector<int64_t> InstCountAgg;
  std::vector<int64_t> AutophaseAgg;
  std::vector<float> Inst2vecAgg;
  /// Layout of Inst2vecAgg at the last aggregation: function order and
  /// each function's segment start. When an invalidation dirtied some
  /// functions but the function sequence is unchanged, the aggregate is
  /// patched in place (memcpy/splice of the dirty windows) instead of
  /// re-concatenated — the clean prefix is never touched, which is what
  /// pushes the one-dirty path well past the whole-module rescan.
  std::vector<const ir::Function *> Inst2vecOrder;
  std::vector<size_t> Inst2vecOffsets; ///< Parallel to Inst2vecOrder.
  std::string ProgramlAgg;
  bool InstCountAggValid = false;
  bool AutophaseAggValid = false;
  bool Inst2vecAggValid = false;
  bool ProgramlAggValid = false;
};

} // namespace analysis
} // namespace compiler_gym

#endif // COMPILER_GYM_ANALYSIS_FEATURECACHE_H
