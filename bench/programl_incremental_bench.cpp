//===- bench/programl_incremental_bench.cpp - Rich-space increments ------===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the incremental paths for the two expensive observation spaces
/// the paper's Table III singles out — ProGraML and Inst2vec — plus the
/// wire-level delta encoding:
///   cold      = whole-module rescan (pre-refactor behaviour),
///   warm      = AnalysisManager hit on an unchanged module,
///   one-dirty = exactly one function invalidated between requests,
/// and a delta-vs-full wire-size column for one-function edits.
///
/// Shape targets: one-dirty ProGraML and Inst2vec observations are >=5x
/// cheaper than the whole-module rescan, and delta-encoded replies are
/// smaller than full payloads for one-function edits.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"

#include "analysis/Inst2vec.h"
#include "analysis/ProGraML.h"
#include "datasets/CsmithGenerator.h"
#include "datasets/CuratedSuites.h"
#include "ir/UseTable.h"
#include "passes/AnalysisManager.h"
#include "service/Serialization.h"
#include "util/Timer.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace compiler_gym;
using namespace compiler_gym::bench;

namespace {

service::Observation inst2vecObs(const std::vector<float> &E) {
  service::Observation O;
  O.Type = service::ObservationType::DoubleList;
  O.Doubles.assign(E.begin(), E.end());
  return O;
}

service::Observation programlObs(std::string Bytes) {
  service::Observation O;
  O.Type = service::ObservationType::Binary;
  O.Str = std::move(Bytes);
  return O;
}

} // namespace

int main() {
  banner("programl_incremental_bench",
         "Incremental ProGraML/Inst2vec observations and wire deltas");

  const int Repeats = scaled(8, 60);
  const int WarmLookups = 4;

  std::map<std::string, std::vector<double>> Cold, Warm, Dirty1;
  size_t CorpusFunctions = 0, CorpusModules = 0;
  uint64_t FullWire = 0, DeltaWire = 0, UnchangedWire = 0;
  bool AllDeltasSmaller = true;

  for (uint64_t Seed : {11ull, 23ull, 37ull, 51ull}) {
    datasets::ProgramStyle Style = datasets::styleForDataset(
        Seed % 2 ? "benchmark://csmith-v0" : "benchmark://npb-v0");
    // Many-function modules: the one-dirty claim is about skipping the
    // N-1 clean functions, so give it an N worth skipping.
    Style.MinFunctions = 24;
    Style.MaxFunctions = 32;
    auto M = datasets::generateProgram(Seed, Style, "m");
    if (!M || M->functions().size() < 2)
      continue;
    ++CorpusModules;
    CorpusFunctions += M->functions().size();
    // Dirty a mid-module function: edits there exercise both the skipped
    // prefix and the byte-stable suffix of the serialized graph.
    const ir::Function *Mid =
        M->functions()[M->functions().size() / 2].get();

    passes::AnalysisManager Cache;
    (void)Cache.inst2vec(*M); // Populate once.
    (void)Cache.programl(*M);

    for (int R = 0; R < Repeats; ++R) {
      {
        Stopwatch W;
        (void)analysis::inst2vec(*M);
        Cold["Inst2vec"].push_back(W.elapsedMs());
      }
      {
        Stopwatch W;
        (void)analysis::serializeGraph(analysis::buildProgramGraph(*M));
        Cold["Programl"].push_back(W.elapsedMs());
      }
      for (int K = 0; K < WarmLookups; ++K) {
        Stopwatch W;
        (void)Cache.inst2vec(*M);
        Warm["Inst2vec"].push_back(W.elapsedMs());
      }
      for (int K = 0; K < WarmLookups; ++K) {
        Stopwatch W;
        (void)Cache.programl(*M);
        Warm["Programl"].push_back(W.elapsedMs());
      }
      {
        Cache.invalidate(*Mid, passes::PreservedAnalyses::cfg());
        Stopwatch W;
        (void)Cache.inst2vec(*M);
        Dirty1["Inst2vec"].push_back(W.elapsedMs());
      }
      {
        Cache.invalidate(*Mid, passes::PreservedAnalyses::cfg());
        Stopwatch W;
        (void)Cache.programl(*M);
        Dirty1["Programl"].push_back(W.elapsedMs());
      }
    }

    // Wire sizes: delta between the observation before and after a
    // one-function edit vs the full payload (and the empty
    // "unchanged-state" delta the handshake sends for repeat queries).
    service::Observation I2vBase = inst2vecObs(Cache.inst2vec(*M));
    service::Observation PgBase = programlObs(Cache.programl(*M));
    ir::Function *MutableMid =
        M->functions()[M->functions().size() / 2].get();
    ir::UseTable MidUses(*MutableMid);
    for (const auto &BB : MutableMid->blocks()) {
      bool Deleted = false;
      for (size_t I = 0; I < BB->size(); ++I) {
        const ir::Instruction *Inst = BB->instructions()[I].get();
        if (Inst->isTerminator() || MidUses.hasUses(Inst) ||
            Inst->hasSideEffects())
          continue;
        BB->erase(I);
        Deleted = true;
        break;
      }
      if (Deleted)
        break;
    }
    Cache.invalidate(*MutableMid, passes::PreservedAnalyses::cfg());
    service::Observation I2vFull = inst2vecObs(Cache.inst2vec(*M));
    service::Observation PgFull = programlObs(Cache.programl(*M));
    for (auto [Base, Full] : {std::pair<const service::Observation *,
                                        const service::Observation *>{
                                  &I2vBase, &I2vFull},
                              {&PgBase, &PgFull}}) {
      FullWire += service::observationWireSize(*Full);
      service::Observation Delta;
      if (service::encodeObservationDelta(*Base, *Full, Delta)) {
        DeltaWire += service::observationWireSize(Delta);
      } else {
        DeltaWire += service::observationWireSize(*Full);
        AllDeltasSmaller = false;
      }
      service::Observation Unchanged;
      Unchanged.Type = Full->Type;
      Unchanged.IsDelta = true;
      UnchangedWire += service::observationWireSize(Unchanged);
    }
  }

  std::printf("\ncorpus: %zu modules, %zu functions total\n", CorpusModules,
              CorpusFunctions);
  std::printf("\n-- observation costs: cold (full rescan) --\n");
  for (const char *Space : {"Inst2vec", "Programl"})
    latencyRow(Space, Cold[Space]);
  std::printf("-- observation costs: warm (unchanged module) --\n");
  for (const char *Space : {"Inst2vec", "Programl"})
    latencyRow(Space, Warm[Space]);
  std::printf("-- observation costs: one function dirty --\n");
  for (const char *Space : {"Inst2vec", "Programl"})
    latencyRow(Space, Dirty1[Space]);

  // Ratios gate on medians: a shared CI box's scheduling spikes inflate
  // means on both sides, p50s stay representative.
  auto medianOf = [](std::map<std::string, std::vector<double>> &T,
                     const char *K) { return summarizeLatencies(T[K]).P50; };
  double ColdI2v = medianOf(Cold, "Inst2vec");
  double WarmI2v = medianOf(Warm, "Inst2vec");
  double Dirty1I2v = medianOf(Dirty1, "Inst2vec");
  double ColdPg = medianOf(Cold, "Programl");
  double WarmPg = medianOf(Warm, "Programl");
  double Dirty1Pg = medianOf(Dirty1, "Programl");
  // Sub-tick warm medians read as 0; clamp to one timer tick so the
  // ratios stay finite.
  WarmI2v = std::max(WarmI2v, 1e-6);
  WarmPg = std::max(WarmPg, 1e-6);
  std::printf("\nwarm speedup (p50): Inst2vec %.1fx, Programl %.1fx\n",
              ColdI2v / WarmI2v, ColdPg / WarmPg);
  std::printf("one-dirty speedup (p50): Inst2vec %.1fx, Programl %.1fx\n",
              ColdI2v / Dirty1I2v, ColdPg / Dirty1Pg);
  std::printf("\n-- wire size, one-function edit (all modules) --\n");
  std::printf("%-28s %10llu bytes\n", "full payloads",
              static_cast<unsigned long long>(FullWire));
  std::printf("%-28s %10llu bytes (%.1f%% of full)\n", "delta replies",
              static_cast<unsigned long long>(DeltaWire),
              100.0 * DeltaWire / FullWire);
  std::printf("%-28s %10llu bytes\n", "unchanged-state replies",
              static_cast<unsigned long long>(UnchangedWire));

  ShapeChecks Checks;
  Checks.check(ColdI2v / Dirty1I2v > 5.0,
               "one-dirty Inst2vec >=5x cheaper than full rescan");
  Checks.check(ColdPg / Dirty1Pg > 5.0,
               "one-dirty Programl >=5x cheaper than full rescan");
  Checks.check(ColdI2v / WarmI2v > 5.0,
               "warm Inst2vec >=5x cheaper than full rescan");
  Checks.check(ColdPg / WarmPg > 5.0,
               "warm Programl >=5x cheaper than full rescan");
  Checks.check(AllDeltasSmaller && DeltaWire < FullWire,
               "delta replies smaller than full payloads for "
               "one-function edits");
  Checks.check(UnchangedWire * 10 < FullWire,
               "unchanged-state replies are near-free");
  return Checks.verdict();
}
