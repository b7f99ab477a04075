//===- autotune/Search.h - Autotuning interfaces -----------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuning interface shared by the Table IV (LLVM phase ordering)
/// and Table V (GCC flag tuning) techniques: run a search over an
/// environment under a budget, return the best action sequence found and
/// its cumulative reward.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_AUTOTUNE_SEARCH_H
#define COMPILER_GYM_AUTOTUNE_SEARCH_H

#include "core/CompilerEnv.h"
#include "util/Rng.h"
#include "util/Timer.h"

#include <memory>
#include <string>

namespace compiler_gym {
namespace autotune {

/// Search termination budget; 0 means unbounded for each field.
struct SearchBudget {
  size_t MaxSteps = 0;          ///< Total environment steps.
  double MaxWallSeconds = 0.0;  ///< Wall-clock cap (the paper's 1 h).
  size_t MaxCompilations = 0;   ///< Episodes/compilations (Table V: 1000).
};

/// Search outcome.
struct SearchResult {
  std::vector<int> BestActions;
  double BestReward = 0.0;
  size_t StepsUsed = 0;
  size_t CompilationsUsed = 0;
  double WallSeconds = 0.0;
};

/// Base class for sequence-search autotuners (LLVM phase ordering).
class Search {
public:
  virtual ~Search();
  virtual std::string name() const = 0;
  /// Runs the search on \p E (the env is reset as needed).
  virtual StatusOr<SearchResult> run(core::CompilerEnv &E,
                                     const SearchBudget &Budget) = 0;

  /// Seeds the search with a known-good action sequence (typically the
  /// default pipeline's actions) that it evaluates as its first candidate
  /// and adopts as the initial incumbent. This is standard autotuning
  /// practice — OpenTuner and Nevergrad both accept the default
  /// configuration as a seed — and it floors the search result at the
  /// default pipeline's quality. Evaluating the seed counts against the
  /// budget like any other candidate.
  void setWarmStart(std::vector<int> Actions) {
    WarmStart = std::move(Actions);
  }

protected:
  std::vector<int> WarmStart; ///< Empty = no warm start.
};

/// Budget bookkeeping shared by implementations.
class BudgetTracker {
public:
  explicit BudgetTracker(const SearchBudget &Budget) : Budget(Budget) {}

  bool exhausted() const {
    if (Budget.MaxSteps && Steps >= Budget.MaxSteps)
      return true;
    if (Budget.MaxCompilations && Compilations >= Budget.MaxCompilations)
      return true;
    if (Budget.MaxWallSeconds > 0.0 &&
        Watch.elapsedMs() / 1000.0 >= Budget.MaxWallSeconds)
      return true;
    return false;
  }

  void addSteps(size_t N) { Steps += N; }
  void addCompilation() { ++Compilations; }

  size_t steps() const { return Steps; }
  size_t compilations() const { return Compilations; }
  double wallSeconds() const { return Watch.elapsedMs() / 1000.0; }

private:
  SearchBudget Budget;
  Stopwatch Watch;
  size_t Steps = 0;
  size_t Compilations = 0;
};

/// Replays \p Actions on a fresh episode in one batched step; returns the
/// cumulative reward. Counts one compilation.
StatusOr<double> evaluateSequence(core::CompilerEnv &E,
                                  const std::vector<int> &Actions,
                                  BudgetTracker &Tracker);

/// Maps the pass pipeline of \p Level ("-Oz", "-O3", ...) onto action
/// indices in \p E's action space, skipping any pipeline pass that is not
/// exposed as an action. The result is suitable for Search::setWarmStart().
std::vector<int> pipelineActions(const core::CompilerEnv &E,
                                 const std::string &Level);

// -- Factories (LLVM phase ordering, Table IV) -------------------------------
std::unique_ptr<Search> createRandomSearch(uint64_t Seed = 1,
                                           size_t Patience = 32);
std::unique_ptr<Search> createGreedySearch();
std::unique_ptr<Search> createLaMctsSearch(uint64_t Seed = 1);
std::unique_ptr<Search> createNevergradSearch(uint64_t Seed = 1,
                                              size_t SequenceLength = 24);
std::unique_ptr<Search> createOpenTunerSearch(uint64_t Seed = 1,
                                              size_t SequenceLength = 24);

// -- Factories (GCC flag tuning, Table V) -------------------------------------
/// These searches drive the gcc-direct-v0 space via stepDirect().
std::unique_ptr<Search> createGccRandomSearch(uint64_t Seed = 1);
std::unique_ptr<Search> createGccHillClimb(uint64_t Seed = 1,
                                           size_t MutationsPerStep = 4);
std::unique_ptr<Search> createGccGeneticAlgorithm(uint64_t Seed = 1,
                                                  size_t Population = 100);

} // namespace autotune
} // namespace compiler_gym

#endif // COMPILER_GYM_AUTOTUNE_SEARCH_H
