//===- bench/analysis_cache_bench.cpp - Cold vs warm analysis costs -------===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the AnalysisManager layer buys on the step hot path,
/// mirroring the paper's Table III layout (per-observation-space costs)
/// with a cold column (from-scratch recomputation, the pre-refactor
/// behaviour) and warm columns (cache hit on an unchanged module; single
/// dirty function re-aggregation). Also compares step costs between the
/// legacy one-shot runPass path (fresh pass objects + fresh analyses per
/// action) and a session-style stateful PassManager.
///
/// Shape targets: warm observations on unchanged modules are >=5x cheaper
/// than cold; a single-function-dirty recount beats a whole-module rescan
/// on multi-function programs; the stateful step path does not lose to the
/// one-shot path.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"

#include "analysis/Autophase.h"
#include "analysis/FeatureCache.h"
#include "analysis/InstCount.h"
#include "core/Registry.h"
#include "datasets/CsmithGenerator.h"
#include "datasets/CuratedSuites.h"
#include "passes/PassManager.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Timer.h"

#include <cstdio>
#include <map>

using namespace compiler_gym;
using namespace compiler_gym::bench;

int main() {
  banner("analysis_cache_bench",
         "Cold vs warm observation and step costs under the AnalysisManager");

  const int Repeats = scaled(40, 400);
  const int WarmLookups = 8;

  // -- Part 1: feature observations, module level ---------------------------
  // Cold = whole-module rescan (the pre-refactor per-request behaviour).
  // Warm = FeatureCache hit on an unchanged module.
  // Dirty1 = exactly one function invalidated between requests.
  std::map<std::string, std::vector<double>> Cold, Warm, Dirty1;
  size_t CorpusFunctions = 0, CorpusModules = 0;

  for (uint64_t Seed : {11ull, 23ull, 37ull, 51ull}) {
    datasets::ProgramStyle Style = datasets::styleForDataset(
        Seed % 2 ? "benchmark://csmith-v0" : "benchmark://npb-v0");
    // Many-function modules: the single-dirty-function claim is about
    // skipping the N-1 clean functions, so give it an N worth skipping
    // (cbench-sized programs, not 3-function toys).
    Style.MinFunctions = 24;
    Style.MaxFunctions = 32;
    auto M = datasets::generateProgram(Seed, Style, "m");
    if (!M || M->functions().empty())
      continue;
    ++CorpusModules;
    CorpusFunctions += M->functions().size();
    const ir::Function *First = M->functions().front().get();

    analysis::FeatureCache Cache;
    (void)Cache.instCount(*M); // Populate once.
    (void)Cache.autophase(*M);

    for (int R = 0; R < Repeats; ++R) {
      {
        Stopwatch W;
        (void)analysis::instCount(*M);
        Cold["InstCount"].push_back(W.elapsedMs());
      }
      {
        Stopwatch W;
        (void)analysis::autophase(*M);
        Cold["Autophase"].push_back(W.elapsedMs());
      }
      for (int K = 0; K < WarmLookups; ++K) {
        Stopwatch W;
        (void)Cache.instCount(*M);
        Warm["InstCount"].push_back(W.elapsedMs());
      }
      for (int K = 0; K < WarmLookups; ++K) {
        Stopwatch W;
        (void)Cache.autophase(*M);
        Warm["Autophase"].push_back(W.elapsedMs());
      }
      {
        Cache.invalidateFunction(First);
        Stopwatch W;
        (void)Cache.instCount(*M);
        Dirty1["InstCount"].push_back(W.elapsedMs());
      }
      {
        Cache.invalidateFunction(First);
        Stopwatch W;
        (void)Cache.autophase(*M);
        Dirty1["Autophase"].push_back(W.elapsedMs());
      }
    }
  }

  std::printf("\ncorpus: %zu modules, %zu functions total\n", CorpusModules,
              CorpusFunctions);
  std::printf("\n-- observation costs: cold (full rescan) --\n");
  for (const char *Space : {"InstCount", "Autophase"})
    latencyRow(Space, Cold[Space]);
  std::printf("-- observation costs: warm (unchanged module) --\n");
  for (const char *Space : {"InstCount", "Autophase"})
    latencyRow(Space, Warm[Space]);
  std::printf("-- observation costs: one function dirty --\n");
  for (const char *Space : {"InstCount", "Autophase"})
    latencyRow(Space, Dirty1[Space]);

  // -- Part 2: repeated observations through the service --------------------
  // Through the full env stack: the first observe after a step computes
  // (or hits the service's observation cache on a revisited state);
  // repeats on the unchanged state advertise it as their delta base and
  // are answered with an empty "unchanged" delta, computing nothing.
  std::map<std::string, std::vector<double>> EnvFirst, EnvRepeat;
  {
    core::MakeOptions Opts;
    Opts.Benchmark = "benchmark://cbench-v1/susan";
    Opts.ObservationSpace = "none";
    Opts.RewardSpace = "none";
    auto Env = core::make("llvm-v0", Opts);
    if (Env.isOk() && (*Env)->reset().isOk()) {
      size_t NumActions = (*Env)->actionSpace().ActionNames.size();
      Rng Gen(0xCAC4E);
      const int Steps = scaled(20, 120);
      for (int S = 0; S < Steps; ++S) {
        if (!(*Env)->step(static_cast<int>(Gen.bounded(NumActions))).isOk())
          break;
        // rawObservations keeps every request on the RPC path: repeats
        // measure the service's answer, not the frontend view cache.
        for (const char *Space : {"InstCount", "Autophase", "Ir"}) {
          Stopwatch W;
          if (!(*Env)->rawObservations({Space}).isOk())
            continue;
          EnvFirst[Space].push_back(W.elapsedMs());
          for (int K = 0; K < WarmLookups; ++K) {
            Stopwatch W2;
            if ((*Env)->rawObservations({Space}).isOk())
              EnvRepeat[Space].push_back(W2.elapsedMs());
          }
        }
      }
    }
  }
  std::printf("\n-- env observe(): first after step vs repeated --\n");
  for (const char *Space : {"InstCount", "Autophase", "Ir"}) {
    latencyRow((std::string(Space) + " (first)"), EnvFirst[Space]);
    latencyRow((std::string(Space) + " (repeat)"), EnvRepeat[Space]);
  }

  // -- Part 3: step cost, one-shot vs stateful pass manager -----------------
  // An analysis-heavy action sequence at fixpoint: the legacy path pays a
  // registry construction plus fresh dominators/loops per action; the
  // stateful path reuses both.
  std::vector<double> OneShotStep, StatefulStep;
  {
    const std::vector<std::string> Sequence = {
        "loop-simplify", "licm", "gvn",  "early-cse",
        "licm",          "gvn",  "sink", "canonicalize-block-order",
    };
    datasets::ProgramStyle Style =
        datasets::styleForDataset("benchmark://npb-v0");
    auto Base = datasets::generateProgram(77, Style, "m");
    // Reach a fixpoint first so both paths measure pure analysis/setup
    // overhead rather than divergent transform work.
    (void)passes::PassManager(*Base).runToFixpoint(Sequence, 4);

    auto OneShot = Base->clone();
    for (int R = 0; R < Repeats; ++R) {
      for (const std::string &Name : Sequence) {
        Stopwatch W;
        // Fresh manager per action (the legacy behaviour). Verification is
        // explicitly off so debug builds compare the same work as the
        // stateful path below, not recompute-and-compare overhead.
        passes::PassManager Transient(*OneShot);
        Transient.setVerifyPreservation(false);
        (void)Transient.run(Name);
        OneShotStep.push_back(W.elapsedMs());
      }
    }
    auto Stateful = Base->clone();
    passes::PassManager PM(*Stateful);
    PM.setVerifyPreservation(false);
    telemetry::MetricsRegistry &Reg = telemetry::MetricsRegistry::global();
    telemetry::Counter &DomHit = Reg.counter(
        "cg_analysis_lookups_total", {{"kind", "domtree"}, {"outcome", "hit"}});
    telemetry::Counter &DomCompute =
        Reg.counter("cg_analysis_lookups_total",
                    {{"kind", "domtree"}, {"outcome", "compute"}});
    const uint64_t DomHit0 = DomHit.value();
    const uint64_t DomCompute0 = DomCompute.value();
    for (int R = 0; R < Repeats; ++R) {
      for (const std::string &Name : Sequence) {
        Stopwatch W;
        (void)PM.run(Name);
        StatefulStep.push_back(W.elapsedMs());
      }
    }
    std::printf("\n-- step cost at fixpoint (analysis-heavy sequence) --\n");
    latencyRow("one-shot runPass", OneShotStep);
    latencyRow("stateful PassManager", StatefulStep);
    std::printf("analysis cache: domtree hits=%llu computes=%llu\n",
                static_cast<unsigned long long>(DomHit.value() - DomHit0),
                static_cast<unsigned long long>(DomCompute.value() -
                                                DomCompute0));
  }

  auto meanOf = [](std::map<std::string, std::vector<double>> &T,
                   const char *K) { return mean(T[K]); };
  double ColdIC = meanOf(Cold, "InstCount");
  double WarmIC = meanOf(Warm, "InstCount");
  double ColdAP = meanOf(Cold, "Autophase");
  double WarmAP = meanOf(Warm, "Autophase");
  double Dirty1IC = meanOf(Dirty1, "InstCount");
  double Dirty1AP = meanOf(Dirty1, "Autophase");
  std::printf("\nwarm speedup: InstCount %.1fx, Autophase %.1fx\n",
              ColdIC / WarmIC, ColdAP / WarmAP);
  std::printf("one-dirty speedup: InstCount %.1fx, Autophase %.1fx\n",
              ColdIC / Dirty1IC, ColdAP / Dirty1AP);
  std::printf("step speedup at fixpoint: %.2fx\n",
              mean(OneShotStep) / mean(StatefulStep));

  ShapeChecks Checks;
  Checks.check(ColdIC / WarmIC > 5.0,
               "warm InstCount >=5x cheaper than full rescan");
  Checks.check(ColdAP / WarmAP > 5.0,
               "warm Autophase >=5x cheaper than full rescan");
  Checks.check(Dirty1IC < ColdIC,
               "single-dirty-function InstCount beats whole-module rescan");
  Checks.check(Dirty1AP < ColdAP,
               "single-dirty-function Autophase beats whole-module rescan");
  Checks.check(mean(EnvRepeat["InstCount"]) < mean(EnvFirst["InstCount"]),
               "repeated env observation skips recomputation");
  Checks.check(mean(StatefulStep) < mean(OneShotStep) * 1.05,
               "stateful step path does not lose to one-shot runPass");
  return Checks.verdict();
}
