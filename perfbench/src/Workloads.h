//===- perfbench/src/Workloads.h - The three benchmark workloads -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rl-episodes, gateway-multispace and autotune-fanout: each sets itself up
/// several times (timing every set-up), then drives the library's public
/// API in a closed loop for Config::Seconds, recording every call in
/// per-thread Recorders and the registry diff of the timed window.
/// README.md says why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

struct WorkloadRun {
  std::vector<double> SetupS;    ///< Wall seconds of each set-up.
  std::vector<double> ResolveUs; ///< DatasetRegistry::resolve during set-up.
  double WallS = 0;              ///< Length of the timed phase.
  std::vector<Recorder> Recorders; ///< One per load thread.
  RegistryDiff Registry;         ///< Over the timed phase.
  /// Mismatches found while running (autotune: a candidate's reward delta
  /// differs from the parent's reward for the same action).
  std::vector<std::string> OnlineMismatches;
  /// Observation spaces every step computes (besides the reward metric).
  std::vector<std::string> StepSpaces;
  std::vector<std::string> ActionNames;
};

/// Runs the workload named in \p C. Unknown names are InvalidArgument.
StatusOr<WorkloadRun> runWorkload(const Config &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
