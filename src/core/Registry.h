//===- core/Registry.h - make("llvm-v0") ------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The environment registry and make() entry point, mirroring
/// compiler_gym.make() from Listing 1:
///
/// \code
///   auto Env = core::make("llvm-v0", {
///       .Benchmark = "benchmark://cbench-v1/qsort",
///       .ObservationSpace = "Autophase",
///       .RewardSpace = "IrInstructionCount",
///   });
/// \endcode
///
/// Registered ids: "llvm-v0", "llvm-autophase-ic-v0", "llvm-ic-v0",
/// "gcc-v0", "loop_tool-v0".
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_CORE_REGISTRY_H
#define COMPILER_GYM_CORE_REGISTRY_H

#include "core/CompilerEnv.h"

namespace compiler_gym {
namespace core {

/// Optional overrides for make().
struct MakeOptions {
  std::string Benchmark;        ///< "" = env default.
  std::string ObservationSpace; ///< "" = env default.
  std::string RewardSpace;      ///< "" = env default.
  std::string ActionSpaceName;  ///< "" = backend default.
  service::ClientOptions Client;
};

/// Instantiates a registered environment.
StatusOr<std::unique_ptr<CompilerEnv>> make(const std::string &EnvId,
                                            const MakeOptions &Opts = {});

/// Translates an environment id plus overrides into the concrete
/// CompilerEnvOptions make() would use, without instantiating anything.
/// Registers the builtin compilers as a side effect. runtime::EnvPool uses
/// this to attach many environments onto shared ServiceBroker shards.
StatusOr<CompilerEnvOptions> resolveMakeOptions(const std::string &EnvId,
                                                const MakeOptions &Opts = {});

/// All registered environment ids.
std::vector<std::string> registeredEnvironments();

} // namespace core
} // namespace compiler_gym

#endif // COMPILER_GYM_CORE_REGISTRY_H
