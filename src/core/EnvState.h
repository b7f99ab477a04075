//===- core/EnvState.h - Episode state serialization ------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializable episode state (§III-B2): benchmark, action history and
/// cumulative reward. States round-trip through a single text line and can
/// be replayed for reproducibility validation (§III-B3) — the mechanism
/// that caught LLVM's nondeterministic -gvn-sink in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_CORE_ENVSTATE_H
#define COMPILER_GYM_CORE_ENVSTATE_H

#include "util/Status.h"

#include <string>
#include <vector>

namespace compiler_gym {
namespace core {

/// A saved episode.
struct EnvState {
  std::string EnvId;        ///< e.g. "llvm-v0".
  std::string BenchmarkUri;
  std::string RewardSpace;
  std::string ObservationSpace; ///< Active default observation space.
  std::vector<int> Actions;
  double CumulativeReward = 0.0;

  /// Single-line text form:
  /// "envId|benchmark|reward-space|obs-space|r|a0,a1,...".
  std::string serialize() const;
  static StatusOr<EnvState> deserialize(const std::string &Line);

  bool operator==(const EnvState &Other) const = default;
};

} // namespace core
} // namespace compiler_gym

#endif // COMPILER_GYM_CORE_ENVSTATE_H
