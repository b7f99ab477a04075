//===- autotune/RandomSearch.cpp - Random search baselines ------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random search for both environments. For LLVM phase ordering (Table
/// IV): "selects actions randomly until a configurable number of steps
/// have elapsed without a positive reward", then restarts. For GCC flag
/// tuning (Table V): "a random list of 502 integers from the allowable
/// range is selected at each step".
///
//===----------------------------------------------------------------------===//

#include "autotune/Search.h"

#include "envs/gcc/GccSession.h"


using namespace compiler_gym;
using namespace compiler_gym::autotune;

namespace {

class RandomSearch : public Search {
public:
  RandomSearch(uint64_t Seed, size_t Patience)
      : Gen(Seed), Patience(Patience) {}

  std::string name() const override { return "Random Search"; }

  StatusOr<SearchResult> run(core::CompilerEnv &E,
                             const SearchBudget &Budget) override {
    BudgetTracker Tracker(Budget);
    SearchResult Result;
    if (!WarmStart.empty()) {
      // The seed only floors the reported result; the random episodes
      // below stay pure.
      CG_ASSIGN_OR_RETURN(double Reward,
                          evaluateSequence(E, WarmStart, Tracker));
      if (Reward > Result.BestReward) {
        Result.BestReward = Reward;
        Result.BestActions = WarmStart;
      }
    }
    while (!Tracker.exhausted()) {
      CG_ASSIGN_OR_RETURN(service::Observation Obs, E.reset());
      (void)Obs;
      Tracker.addCompilation();
      size_t NumActions = E.actionSpace().size();
      std::vector<int> Episode;
      size_t StepsSincePositive = 0;
      double Cumulative = 0.0;
      // One episode: run until patience runs out, remembering the best
      // reward prefix seen.
      while (StepsSincePositive < Patience && !Tracker.exhausted()) {
        int Action = static_cast<int>(Gen.bounded(NumActions));
        CG_ASSIGN_OR_RETURN(core::StepResult R, E.step(Action));
        Tracker.addSteps(1);
        Episode.push_back(Action);
        Cumulative += R.Reward;
        if (R.Reward > 0.0)
          StepsSincePositive = 0;
        else
          ++StepsSincePositive;
        if (Cumulative > Result.BestReward) {
          Result.BestReward = Cumulative;
          Result.BestActions = Episode;
        }
        if (R.Done)
          break;
      }
    }
    Result.StepsUsed = Tracker.steps();
    Result.CompilationsUsed = Tracker.compilations();
    Result.WallSeconds = Tracker.wallSeconds();
    return Result;
  }

private:
  Rng Gen;
  size_t Patience;
};

/// Random choice vectors over the GCC option space.
class GccRandomSearch : public Search {
public:
  explicit GccRandomSearch(uint64_t Seed) : Gen(Seed) {}

  std::string name() const override { return "Random Search"; }

  StatusOr<SearchResult> run(core::CompilerEnv &E,
                             const SearchBudget &Budget) override {
    const envs::GccOptionSpace &Spec = envs::GccSession::optionSpace();
    BudgetTracker Tracker(Budget);
    SearchResult Result;
    CG_ASSIGN_OR_RETURN(service::Observation Obs, E.reset());
    (void)Obs;
    bool First = true;
    while (!Tracker.exhausted()) {
      std::vector<int64_t> Choices(Spec.options().size());
      for (size_t I = 0; I < Choices.size(); ++I)
        Choices[I] = static_cast<int64_t>(
            Gen.bounded(static_cast<uint64_t>(Spec.options()[I].Cardinality)));
      CG_ASSIGN_OR_RETURN(core::StepResult R, E.stepDirect(Choices));
      Tracker.addCompilation();
      Tracker.addSteps(1);
      // Cumulative episode reward is the total size reduction from the
      // default config to this config.
      double Total = E.episodeReward();
      if (First || Total > Result.BestReward) {
        Result.BestReward = Total;
        Result.BestActions.assign(Choices.begin(), Choices.end());
        First = false;
      }
      (void)R;
    }
    Result.StepsUsed = Tracker.steps();
    Result.CompilationsUsed = Tracker.compilations();
    Result.WallSeconds = Tracker.wallSeconds();
    return Result;
  }

private:
  Rng Gen;
};

} // namespace

std::unique_ptr<Search> autotune::createRandomSearch(uint64_t Seed,
                                                     size_t Patience) {
  return std::make_unique<RandomSearch>(Seed, Patience);
}

std::unique_ptr<Search> autotune::createGccRandomSearch(uint64_t Seed) {
  return std::make_unique<GccRandomSearch>(Seed);
}
