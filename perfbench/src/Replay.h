//===- perfbench/src/Replay.h - Reference replay of episodes ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness check, run after timing stops: every recorded episode's
/// action list is re-run on a freshly parsed module with a fresh
/// passes::PassManager — no session caches, no copy-on-write sharing, no
/// wire deltas, no transport — and the final Autophase, InstCount and
/// IrInstructionCount (and the episode reward) are compared with what the
/// environment reported. Runnable programs (cbench-v1, csmith-v0) are also
/// checked with analysis::validateSemantics against the unoptimized IR.
///
/// The same replay times the ir, passes and analysis calls it makes; the
/// traced run reports those as per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Harness.h"

namespace perfbench {

struct ReplayResult {
  size_t Episodes = 0;
  size_t SemanticsChecked = 0;
  /// One line per mismatch: program URI, action list, what differed.
  std::vector<std::string> Mismatches;
  // Directly timed layer calls (us per call).
  std::vector<double> ResolveUs, ParseUs, PassRunUs, ShareUs, CloneUs;
  std::vector<double> AutophaseUs, InstCountUs, ProgramlUs, Inst2vecUs;
};

/// Replays \p Episodes on up to \p Threads threads. \p TimeLayers adds the
/// timed calls that only the traced run needs (Programl, Inst2vec, share,
/// clone).
ReplayResult replayEpisodes(const std::vector<const Episode *> &Episodes,
                            const std::vector<std::string> &ActionNames,
                            int Threads, bool TimeLayers);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
