//===- core/Registry.cpp --------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Registry.h"

#include "envs/gcc/GccSession.h"
#include "envs/llvm/LlvmSession.h"
#include "envs/loop_tool/LoopToolSession.h"

using namespace compiler_gym;
using namespace compiler_gym::core;

namespace {

/// Environment-id presets.
struct EnvPreset {
  const char *EnvId;
  const char *Compiler;
  const char *DefaultBenchmark;
  const char *DefaultObservation;
  const char *DefaultReward;
};

const EnvPreset Presets[] = {
    {"llvm-v0", "llvm", "benchmark://cbench-v1/qsort", "Autophase",
     "IrInstructionCount"},
    // The id used in the paper's Listing 2.
    {"llvm-autophase-ic-v0", "llvm", "benchmark://cbench-v1/qsort",
     "Autophase", "IrInstructionCountOz"},
    {"llvm-ic-v0", "llvm", "benchmark://cbench-v1/qsort", "",
     "IrInstructionCount"},
    {"gcc-v0", "gcc", "benchmark://chstone-v0/adpcm", "Choices",
     "ObjSizeBytes"},
    {"loop_tool-v0", "loop_tool", "benchmark://loop_tool-v0/1048576",
     "action_state", "flops"},
};

} // namespace

StatusOr<CompilerEnvOptions>
core::resolveMakeOptions(const std::string &EnvId, const MakeOptions &Opts) {
  envs::registerLlvmEnvironment();
  envs::registerGccEnvironment();
  envs::registerLoopToolEnvironment();

  for (const EnvPreset &P : Presets) {
    if (EnvId != P.EnvId)
      continue;
    CompilerEnvOptions EnvOpts;
    EnvOpts.CompilerName = P.Compiler;
    EnvOpts.EnvId = EnvId;
    EnvOpts.BenchmarkUri =
        Opts.Benchmark.empty() ? P.DefaultBenchmark : Opts.Benchmark;
    // "" = preset default; the literal "none" disables the space.
    EnvOpts.ObservationSpace = Opts.ObservationSpace.empty()
                                   ? P.DefaultObservation
                                   : Opts.ObservationSpace;
    if (EnvOpts.ObservationSpace == "none")
      EnvOpts.ObservationSpace.clear();
    EnvOpts.RewardSpace =
        Opts.RewardSpace.empty() ? P.DefaultReward : Opts.RewardSpace;
    if (EnvOpts.RewardSpace == "none")
      EnvOpts.RewardSpace.clear();
    EnvOpts.ActionSpaceName = Opts.ActionSpaceName;
    EnvOpts.Client = Opts.Client;
    return EnvOpts;
  }
  return notFound("no environment '" + EnvId +
                  "'; known: llvm-v0, llvm-autophase-ic-v0, llvm-ic-v0, "
                  "gcc-v0, loop_tool-v0");
}

StatusOr<std::unique_ptr<CompilerEnv>>
core::make(const std::string &EnvId, const MakeOptions &Opts) {
  CG_ASSIGN_OR_RETURN(CompilerEnvOptions EnvOpts,
                      resolveMakeOptions(EnvId, Opts));
  return CompilerEnv::create(EnvOpts);
}

std::vector<std::string> core::registeredEnvironments() {
  std::vector<std::string> Out;
  for (const EnvPreset &P : Presets)
    Out.push_back(P.EnvId);
  return Out;
}
