//===- bench/deadline_overhead_bench.cpp - Deadline cost -------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gates the robustness machinery's overhead on the fault-free step path:
/// with deadline propagation on (the shipping default — every request
/// stamped with its remaining budget, the service arming a CancelToken,
/// and pass pipelines polling it between passes), mean step latency must
/// stay within 1% of a client with PropagateDeadline off.
///
/// Anti-flake design mirrors telemetry_overhead_bench: each round
/// measures both configurations back-to-back (order alternating per
/// round) and yields one paired ratio; the gated statistic is the median
/// round ratio; the measurement retries up to three times before the
/// check fails.
///
/// Also prints the raw cancel-token primitive costs (poll, fault-point
/// no-op branch), which are informational.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"

#include "core/Registry.h"
#include "fault/FaultRegistry.h"
#include "util/CancelToken.h"
#include "util/Timer.h"

#include <algorithm>
#include <cstdio>

using namespace compiler_gym;
using namespace compiler_gym::bench;

namespace {

/// ns per operation over \p Iters calls of \p Fn.
template <typename FnT> double nsPerOp(int Iters, FnT &&Fn) {
  Stopwatch W;
  for (int I = 0; I < Iters; ++I)
    Fn();
  return W.elapsedUs() * 1000.0 / Iters;
}

/// Mean step latency (ms) over one round of \p Steps steps. Actions
/// cycle so passes genuinely run — the polling cost under test sits
/// between passes, so a memoized no-op step would measure nothing.
double stepRoundMeanMs(core::CompilerEnv &Env, int Steps) {
  std::vector<double> Samples;
  Samples.reserve(Steps);
  for (int S = 0; S < Steps; ++S) {
    Stopwatch W;
    if (!Env.step({S % 8}).isOk())
      return -1;
    Samples.push_back(W.elapsedMs());
  }
  return mean(Samples);
}

std::unique_ptr<core::CompilerEnv> makeEnv(bool PropagateDeadline) {
  core::MakeOptions Opts;
  Opts.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.ObservationSpace = "Autophase";
  Opts.RewardSpace = "IrInstructionCount";
  Opts.Client.PropagateDeadline = PropagateDeadline;
  auto Env = core::make("llvm-v0", Opts);
  if (!Env.isOk()) {
    std::fprintf(stderr, "env construction failed: %s\n",
                 Env.status().toString().c_str());
    return nullptr;
  }
  return Env.takeValue();
}

} // namespace

int main() {
  banner("deadline_overhead_bench",
         "Step-latency overhead of deadline propagation + cancel polling "
         "(gated <1%)");

  // -- Primitive costs (informational) ----------------------------------------
  const int MicroIters = scaled(2000000, 20000000);
  util::CancelToken Token;
  Token.armDeadlineMs(60000);
  double PollNs = nsPerOp(MicroIters, [&] { (void)Token.poll(); });
  double FaultNs =
      nsPerOp(MicroIters, [&] { (void)CG_FAULT_POINT("bench.point", &Token); });
  std::printf("\n-- primitive costs --\n");
  std::printf("cancel-token poll:          %7.2f ns/op\n", PollNs);
  std::printf("fault point (disarmed):     %7.2f ns/op\n", FaultNs);

  // -- Step latency A/B: deadlines on vs off ----------------------------------
  std::unique_ptr<core::CompilerEnv> EnvOn = makeEnv(true);
  std::unique_ptr<core::CompilerEnv> EnvOff = makeEnv(false);
  if (!EnvOn || !EnvOff)
    return 1;

  const int Rounds = scaled(9, 15);
  const int StepsPerRound = scaled(600, 1500);
  const double MaxRegression = 1.01;

  ShapeChecks Checks;
  bool Passed = false;
  for (int Attempt = 1; Attempt <= 3 && !Passed; ++Attempt) {
    // Warmup both sessions: page caches, benchmark parse cache,
    // observation caches.
    if (!EnvOn->reset().isOk() || stepRoundMeanMs(*EnvOn, StepsPerRound) < 0 ||
        !EnvOff->reset().isOk() || stepRoundMeanMs(*EnvOff, StepsPerRound) < 0)
      return 1;

    std::vector<double> Ratios;
    for (int R = 0; R < Rounds; ++R) {
      double MeanOn = 0, MeanOff = 0;
      for (int Leg = 0; Leg < 2; ++Leg) {
        bool DeadlinesOn = (Leg == 0) == (R % 2 == 0);
        core::CompilerEnv &Env = DeadlinesOn ? *EnvOn : *EnvOff;
        if (!Env.reset().isOk())
          return 1;
        double Mean = stepRoundMeanMs(Env, StepsPerRound);
        if (Mean < 0)
          return 1;
        (DeadlinesOn ? MeanOn : MeanOff) = Mean;
      }
      Ratios.push_back(MeanOn / MeanOff);
    }
    std::sort(Ratios.begin(), Ratios.end());
    double Median = Ratios[Ratios.size() / 2];
    Passed = Median <= MaxRegression;
    std::printf("\n-- step latency, attempt %d --\n", Attempt);
    std::printf("per-round deadlines-on/off ratios:");
    for (double Ratio : Ratios)
      std::printf(" %.4f", Ratio);
    std::printf("\nmedian ratio: %.4f (gate: <= %.2f)\n", Median,
                MaxRegression);
  }
  Checks.check(Passed, "deadline-stamped step latency within 1% of "
                       "no-deadline baseline");

  return Checks.verdict();
}
