//===- passes/AnalysisManager.h - Cached analyses + invalidation -*- C++-*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style analysis caching for the pass pipeline. Passes consume
/// function-scoped analyses (dominator tree, natural-loop info, observation
/// feature vectors) through an AnalysisManager instead of recomputing them,
/// and report a PreservedAnalyses set describing what their transform kept
/// intact. The manager invalidates exactly what a pass abandoned, so a
/// step() that runs one pass on one function no longer pays for whole-module
/// analysis rebuilds — the dominant per-op cost in the paper's Table II.
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
/// preservation is caught at the point of the lie.
///
/// Cache lookups are counted in cg_analysis_lookups_total{kind,outcome}.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_PASSES_ANALYSISMANAGER_H
#define COMPILER_GYM_PASSES_ANALYSISMANAGER_H

#include "analysis/FeatureCache.h"
#include "ir/Dominators.h"
#include "ir/Module.h"
#include "util/CancelToken.h"
#include "util/Status.h"

#include <cstdint>
#include <memory>
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

  /// Weakens this set to the intersection with \p O (used to summarize a
  /// pipeline: only what every pass preserved survives).
  PreservedAnalyses &intersect(const PreservedAnalyses &O) {
    Bits &= O.Bits;
    return *this;
  }

private:
  explicit PreservedAnalyses(unsigned Bits) : Bits(Bits) {}
  unsigned Bits;
};

/// What one pass execution did: whether the module changed, and which
/// analyses survived if it did. An unchanged run implicitly preserves all.
struct PassResult {
  bool Changed = false;
  PreservedAnalyses Preserved = PreservedAnalyses::all();
  /// True when the pass (or FunctionPass::run on its behalf) already
  /// reported invalidation to the AnalysisManager at fine granularity.
  /// When false, the PassManager applies \c Preserved module-wide — so a
  /// module pass written without explicit invalidation calls is
  /// conservatively correct rather than silently stale.
  bool InvalidationApplied = false;
  /// True when the pass stopped early because the session's cancel token
  /// fired (FunctionPass::run polls between functions). Work already done
  /// is correctly committed/invalidated; the PassManager converts the flag
  /// into DeadlineExceeded so the session can roll back to its last
  /// committed state.
  bool Cancelled = false;

  /// Convenience: \p IfChanged applies only when \p DidChange is true.
  static PassResult make(bool DidChange, PreservedAnalyses IfChanged) {
    return {DidChange, DidChange ? IfChanged : PreservedAnalyses::all(),
            false};
  }
};

/// Caches function-scoped analyses across pass executions and routes
/// invalidation reports to every cached artifact, including the
/// observation feature vectors. Bound to one module; not thread-safe
/// (one manager per session, like one module per session).
class AnalysisManager {
public:
  /// The dominator tree for \p F, computed on first use per invalidation
  /// epoch.
  const ir::DominatorTree &domTree(const ir::Function &F);

  /// Natural loops of \p F (outermost-first), cached like domTree.
  const std::vector<ir::NaturalLoop> &loops(const ir::Function &F);

  /// Incrementally maintained InstCount/Autophase vectors.
  analysis::FeatureCache &features() { return Features; }

  /// Reports that a transform ran on \p F and preserved \p PA. Drops the
  /// abandoned cached analyses for \p F only.
  void invalidate(const ir::Function &F, const PreservedAnalyses &PA);

  /// Reports a module-level transform (e.g. inlining, global DCE): every
  /// function's abandoned analyses are dropped.
  void invalidateAll(const PreservedAnalyses &PA);

  /// Must be called before a function is erased from the module so no
  /// cached artifact dangles.
  void functionErased(const ir::Function *F);

  // -- Copy-on-write hooks ---------------------------------------------------
  /// A shared function payload \p Old was replaced by the COW copy \p Copy
  /// (Module::unshareFunction), which the module keeps. Value-based feature
  /// artifacts are rekeyed to the structurally identical copy; the CFG
  /// analyses, whose BasicBlock pointers live in the old payload, are
  /// dropped and rebuilt on the copy when a pass asks for them.
  void cowDetached(const ir::Function *Old, const ir::Function *Copy);

  /// Warms this manager from \p O after an environment fork: the feature
  /// cache is copied wholesale. CFG analyses are not: every payload of the
  /// forked module is shared, so the first pass to touch a function copies
  /// it and would drop the parent's trees unread.
  void adoptFrom(const AnalysisManager &O);

  /// True if \p F currently has a cached result of \p Kind (test hook and
  /// preservation-verifier input).
  bool isCached(const ir::Function &F, AnalysisKind Kind) const;

  /// Recomputes every *cached* dominator tree, loop set, and feature vector
  /// from scratch and compares with the cache. Returns Internal status
  /// naming \p PassName on the first mismatch — the "pass lied about
  /// preservation" detector.
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
  struct Entry {
    std::unique_ptr<ir::DominatorTree> DT;
    std::unique_ptr<std::vector<ir::NaturalLoop>> Loops;
  };

  std::unordered_map<const ir::Function *, Entry> Cache;
  analysis::FeatureCache Features;
  const util::CancelToken *Cancel = nullptr;
};

} // namespace passes
} // namespace compiler_gym

#endif // COMPILER_GYM_PASSES_ANALYSISMANAGER_H
