//===- bench/multispace_step_bench.cpp - Multi-space step cost -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the views API's single-RPC multi-space step against the
/// N-sequential-RPC alternative it replaces: per step, fetch K observation
/// spaces plus a reward metric either (a) bundled into the step RPC
/// (step(actions, spaces, rewards)) or (b) as one raw observation RPC per
/// space after an observation-free step. Shape targets: bundled issues
/// exactly 1 RPC per step vs 1+K, and is measurably faster per step since
/// every RPC pays serialization + dispatch + reply decoding.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"

#include "core/Registry.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Timer.h"

#include <cstdio>

using namespace compiler_gym;
using namespace compiler_gym::bench;

int main() {
  banner("multispace_step_bench",
         "One multi-space step RPC vs N sequential observation RPCs");

  const int Episodes = scaled(6, 40);
  const int StepsPerEpisode = scaled(16, 60);
  const std::vector<std::string> Spaces = {"InstCount", "Autophase", "Ir"};
  const std::vector<std::string> Rewards = {"IrInstructionCount"};

  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "none";
  Opts.RewardSpace = "none";

  std::vector<double> Bundled, Sequential;
  uint64_t BundledRpcs = 0, SequentialRpcs = 0;
  // Process-wide; each window below runs one env.
  telemetry::Counter &Rpcs =
      telemetry::MetricsRegistry::global().counter("cg_client_rpcs_total");

  auto EnvA = core::make("llvm-v0", Opts);
  auto EnvB = core::make("llvm-v0", Opts);
  if (!EnvA.isOk() || !EnvB.isOk()) {
    std::fprintf(stderr, "env construction failed\n");
    return 1;
  }
  for (int E = 0; E < Episodes; ++E) {
    if (!(*EnvA)->reset().isOk() || !(*EnvB)->reset().isOk())
      return 1;
    for (int S = 0; S < StepsPerEpisode; ++S) {
      // A fixed cheap pass (no-op once applied): the step's transform work
      // is negligible and identical on both sides, so the measurement
      // isolates the RPC-count difference rather than pass cost.
      int Action = 3;
      {
        uint64_t Before = Rpcs.value();
        Stopwatch W;
        if (!(*EnvA)->step({Action}, Spaces, Rewards).isOk())
          return 1;
        Bundled.push_back(W.elapsedMs());
        BundledRpcs += Rpcs.value() - Before;
      }
      {
        uint64_t Before = Rpcs.value();
        Stopwatch W;
        if (!(*EnvB)->step(Action).isOk())
          return 1;
        for (const std::string &Space : Spaces)
          if (!(*EnvB)->rawObservations({Space}).isOk())
            return 1;
        if (!(*EnvB)->rawObservations({Rewards.front()}).isOk())
          return 1;
        Sequential.push_back(W.elapsedMs());
        SequentialRpcs += Rpcs.value() - Before;
      }
    }
  }

  std::printf("\n-- per-step cost, %zu observation spaces + %zu reward "
              "metrics --\n",
              Spaces.size(), Rewards.size());
  latencyRow("multi-space step (1 RPC)", Bundled);
  latencyRow("sequential observes", Sequential);
  double RpcsPerBundled = static_cast<double>(BundledRpcs) / Bundled.size();
  double RpcsPerSequential =
      static_cast<double>(SequentialRpcs) / Sequential.size();
  std::printf("RPCs per step: bundled %.2f, sequential %.2f\n",
              RpcsPerBundled, RpcsPerSequential);
  std::printf("speedup: %.2fx\n", mean(Sequential) / mean(Bundled));

  ShapeChecks Checks;
  Checks.check(RpcsPerBundled == 1.0, "bundled step issues exactly 1 RPC");
  Checks.check(RpcsPerSequential ==
                   1.0 + static_cast<double>(Spaces.size() + Rewards.size()),
               "sequential path issues 1+K RPCs");
  Checks.check(mean(Bundled) < mean(Sequential),
               "bundling beats sequential RPCs on mean step cost");
  return Checks.verdict();
}
