//===- passes/AnalysisManager.h - Cached analyses + invalidation -*- C++-*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style analysis caching for the pass pipeline and the observation
/// spaces. One map holds every cached per-function result: the dominator
/// tree and natural loops that passes consume, and the InstCount and
/// Autophase vectors, Inst2vec segment and ProGraML fragment that the
/// module-level observations are assembled from. Passes report a
/// PreservedAnalyses set describing what their transform kept intact, and
/// the manager drops exactly what a pass abandoned, so a step() that runs
/// one pass on one function rebuilds one function's analyses and
/// re-observes one function — the per-op and per-observation costs of the
/// paper's Tables II and III.
///
/// Invalidation contract:
///  * PreservedAnalyses::all()          — the transform changed nothing any
///    analysis observes (e.g. value renaming).
///  * PreservedAnalyses::allButLayout() — only ordering changed (block
///    placement, operand swaps): counts and CFG analyses survive, the
///    order-sensitive Inst2vec/ProGraML artifacts are recomputed.
///  * PreservedAnalyses::cfg()          — instructions changed but the
///    block/edge structure did not: dominators and loops stay valid, all
///    feature artifacts do not.
///  * PreservedAnalyses::none()         — CFG changed; everything is
///    recomputed.
///
/// In debug builds (or with PassManager::setVerifyPreservation(true)) every
/// claim is checked after the pass runs: preserved cached analyses are
/// recomputed from scratch and compared, so a pass that lies about
/// preservation, or edits a function without reporting it, is caught at
/// the point of the lie.
///
/// Cache lookups are counted in cg_analysis_lookups_total{kind,outcome} and
/// dropped results in cg_analysis_invalidations_total{kind}; observation
/// requests, per-function recomputes and aggregate rebuilds in
/// cg_feature_requests_total, cg_feature_recomputes_total and
/// cg_feature_aggregations_total.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_PASSES_ANALYSISMANAGER_H
#define COMPILER_GYM_PASSES_ANALYSISMANAGER_H

#include "analysis/ProGraML.h"
#include "ir/Dominators.h"
#include "ir/Module.h"
#include "util/CancelToken.h"
#include "util/Status.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace passes {

/// Analysis kinds tracked by the manager, usable as a bitmask.
enum AnalysisKind : unsigned {
  AK_DomTree = 1u << 0,  ///< ir::DominatorTree per function.
  AK_Loops = 1u << 1,    ///< Natural loops per function.
  /// Order-insensitive per-function observation vectors (InstCount,
  /// Autophase): histograms that survive block reordering and operand
  /// swaps.
  AK_Features = 1u << 2,
  /// Order-sensitive per-function observation artifacts (Inst2vec
  /// embedding segments, ProGraML graph fragments): anything that moves a
  /// block, reorders instructions, or swaps operands changes them even
  /// when every count survives. Layout-only passes (block placement,
  /// commutative canonicalization) abandon this bit and nothing else.
  AK_Layout = 1u << 3,
};
constexpr unsigned AK_All = AK_DomTree | AK_Loops | AK_Features | AK_Layout;
constexpr unsigned AK_CFG = AK_DomTree | AK_Loops;

/// The set of analyses a transform left valid.
class PreservedAnalyses {
public:
  /// Nothing the analyses observe changed.
  static PreservedAnalyses all() { return PreservedAnalyses(AK_All); }
  /// The CFG changed (or might have); recompute everything.
  static PreservedAnalyses none() { return PreservedAnalyses(0); }
  /// Instructions changed but block/edge structure did not: dominators and
  /// loops survive; feature vectors and layout artifacts must be
  /// recomputed.
  static PreservedAnalyses cfg() { return PreservedAnalyses(AK_CFG); }
  /// Only layout changed (block order, operand order): counts and CFG
  /// analyses survive, the order-sensitive Inst2vec/ProGraML artifacts do
  /// not.
  static PreservedAnalyses allButLayout() {
    return PreservedAnalyses(AK_All & ~AK_Layout);
  }

  /// Adds \p Mask (AnalysisKind bits) to the preserved set.
  PreservedAnalyses &preserve(unsigned Mask) {
    Bits |= Mask;
    return *this;
  }
  /// Removes \p Mask from the preserved set (marks it invalidated).
  PreservedAnalyses &abandon(unsigned Mask) {
    Bits &= ~Mask;
    return *this;
  }
  /// True if every kind in \p Mask is preserved.
  bool preserves(unsigned Mask) const { return (Bits & Mask) == Mask; }
  /// Kinds NOT preserved (the invalidation set).
  unsigned abandoned() const { return AK_All & ~Bits; }

private:
  explicit PreservedAnalyses(unsigned Bits) : Bits(Bits) {}
  unsigned Bits;
};

/// What one pass execution did: whether the module changed, and which
/// analyses survived if it did. An unchanged run implicitly preserves all.
///
/// FunctionPass::run hands each changed function's \c Preserved to
/// AnalysisManager::invalidate. Everything else reports its edits to the
/// manager itself, when it makes them, and returns all(): module passes
/// (inline<N> invalidates each caller, global-dce reports each erasure),
/// and the loop passes that invalidate at every CFG edit and then refetch
/// fresh analyses for their final round. The PassManager applies nothing
/// on a pass's behalf; the preservation verifier catches an edit nobody
/// reported.
struct PassResult {
  bool Changed = false;
  PreservedAnalyses Preserved = PreservedAnalyses::all();
  /// True when the pass stopped early because the session's cancel token
  /// fired (FunctionPass::run polls between functions). Work already done
  /// is correctly committed/invalidated; the PassManager converts the flag
  /// into DeadlineExceeded so the session can roll back to its last
  /// committed state.
  bool Cancelled = false;

  /// Convenience: \p IfChanged applies only when \p DidChange is true.
  static PassResult make(bool DidChange, PreservedAnalyses IfChanged) {
    return {DidChange, DidChange ? IfChanged : PreservedAnalyses::all()};
  }
};

/// The one cache of function-scoped analyses and observation artifacts,
/// bound to one module; not thread-safe (one manager per session, like one
/// module per session). Every notification — invalidate, functionErased,
/// cowDetached, adoptFrom — acts on the same per-function entry.
///
/// The observation accessors are also self-healing against function-set
/// changes nobody reported: each rebuild drops entries for functions no
/// longer in the module and creates empty entries for new ones.
class AnalysisManager {
public:
  /// The dominator tree for \p F, computed on first use per invalidation
  /// epoch.
  const ir::DominatorTree &domTree(const ir::Function &F);

  /// Natural loops of \p F (outermost-first), cached like domTree.
  const std::vector<ir::NaturalLoop> &loops(const ir::Function &F);

  // -- Observations ----------------------------------------------------------
  // Each is assembled from per-function artifacts, recomputing only the
  // functions invalidated since the last request.

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

  // -- Notifications ---------------------------------------------------------
  /// Reports that a transform ran on \p F and preserved \p PA. Drops the
  /// abandoned cached results for \p F only.
  void invalidate(const ir::Function &F, const PreservedAnalyses &PA);

  /// Must be called before a function is erased from the module so no
  /// cached result dangles.
  void functionErased(const ir::Function *F);

  /// A shared function payload \p Old was replaced by the COW copy \p Copy
  /// (Module::unshareFunction), which the module keeps. The copy is
  /// structurally identical, so the value-based observation artifacts
  /// (whose cross-function references are symbolic) move to \p Copy and
  /// the module-level observations stay valid; the CFG analyses, whose
  /// BasicBlock pointers live in the old payload, are dropped and rebuilt
  /// on the copy when a pass asks for them.
  void cowDetached(const ir::Function *Old, const ir::Function *Copy);

  /// Warms this manager from \p O after an environment fork: the
  /// observation artifacts of every entry and the module-level
  /// observations are copied. CFG analyses are not: every payload of the
  /// forked module is shared, so the first pass that may change a function
  /// copies it and drops the trees cached on the payload, and a
  /// FunctionPass::mayChange() that reads a tree builds it on first use.
  void adoptFrom(const AnalysisManager &O);

  /// True if \p F currently has a cached result of \p Kind (test hook).
  bool isCached(const ir::Function &F, AnalysisKind Kind) const;

  /// Recomputes every *cached* per-function result from scratch and
  /// compares with the cache. Returns Internal status naming \p PassName
  /// on the first mismatch — the "pass lied about preservation" detector.
  Status verifyCachedAnalyses(const ir::Module &M,
                              const std::string &PassName);

  // -- Cooperative cancellation --------------------------------------------
  /// The in-flight request's cancel token (or null), installed by the
  /// PassManager for the duration of one pipeline run. FunctionPass::run
  /// polls it between functions so a multi-function pass aborts within one
  /// function's worth of work.
  void setCancelToken(const util::CancelToken *Tok) { Cancel = Tok; }
  const util::CancelToken *cancelToken() const { return Cancel; }
  /// Null-safe liveness-proving poll: true when the running pipeline
  /// should stop.
  bool cancellationRequested() const { return Cancel && Cancel->poll(); }

private:
  /// Everything cached for one function; an empty pointer or optional is
  /// a result not computed since the last invalidation.
  struct Entry {
    std::unique_ptr<ir::DominatorTree> DT;
    std::unique_ptr<std::vector<ir::NaturalLoop>> Loops;
    std::optional<std::vector<int64_t>> InstCount; ///< AK_Features.
    std::optional<std::vector<int64_t>> Autophase; ///< AK_Features.
    std::optional<std::vector<float>> Inst2vec;    ///< AK_Layout.
    std::optional<analysis::GraphFragment> Graph;  ///< AK_Layout.
  };

  /// The module-level observations, assembled from the entries.
  struct Aggregates {
    std::vector<int64_t> InstCount;
    std::vector<int64_t> Autophase;
    std::vector<float> Inst2vec;
    /// Layout of Inst2vec at the last aggregation: function order and
    /// each function's segment start. When an invalidation dirtied some
    /// functions but the function sequence is unchanged, the aggregate is
    /// patched in place (copy/splice of the dirty windows) instead of
    /// re-concatenated — the clean prefix is never touched, which is what
    /// pushes the one-dirty path well past the whole-module rescan.
    std::vector<const ir::Function *> Inst2vecOrder;
    std::vector<size_t> Inst2vecOffsets; ///< Parallel to Inst2vecOrder.
    std::string Programl;
    bool InstCountValid = false;
    bool AutophaseValid = false;
    bool Inst2vecValid = false;
    bool ProgramlValid = false;
  };

  enum class Artifact { InstCount, Autophase, Inst2vec, Programl };

  /// \p F's entry, created empty on first use. A function the aggregates
  /// did not cover marks them stale, so the next request reconciles.
  Entry &entry(const ir::Function &F);

  /// Marks the aggregates built from the \p Kinds artifacts stale
  /// (AK_Features: InstCount/Autophase; AK_Layout: Inst2vec/Programl).
  void staleAggregates(unsigned Kinds);

  /// Reconciles the entry map with the module's current function set and
  /// recomputes every missing \p K artifact. Returns true if anything
  /// changed (=> the aggregate must be rebuilt).
  bool refresh(const ir::Module &M, Artifact K);

  std::unordered_map<const ir::Function *, Entry> Cache;
  Aggregates Agg;
  const util::CancelToken *Cancel = nullptr;
};

} // namespace passes
} // namespace compiler_gym

#endif // COMPILER_GYM_PASSES_ANALYSISMANAGER_H
