//===- autotune/GeneticAlgorithm.cpp - GCC GA -------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Genetic algorithm over GCC choice vectors (Table V): population of 100,
/// elitism, roulette selection, uniform crossover and per-gene mutation —
/// the defaults of the `geneticalgorithm` Python package the paper uses.
///
//===----------------------------------------------------------------------===//

#include "autotune/Search.h"

#include "envs/gcc/GccSession.h"

#include <algorithm>

using namespace compiler_gym;
using namespace compiler_gym::autotune;

namespace {

class GccGeneticAlgorithm : public Search {
public:
  GccGeneticAlgorithm(uint64_t Seed, size_t Population)
      : Gen(Seed), PopulationSize(Population) {}

  std::string name() const override { return "Genetic Algorithm"; }

  StatusOr<SearchResult> run(core::CompilerEnv &E,
                             const SearchBudget &Budget) override {
    const envs::GccOptionSpace &Spec = envs::GccSession::optionSpace();
    const auto &Options = Spec.options();
    BudgetTracker Tracker(Budget);
    SearchResult Result;
    CG_ASSIGN_OR_RETURN(service::Observation Obs, E.reset());
    (void)Obs;

    auto evaluate = [&](const std::vector<int64_t> &Genome)
        -> StatusOr<double> {
      CG_ASSIGN_OR_RETURN(core::StepResult R, E.stepDirect(Genome));
      (void)R;
      Tracker.addCompilation();
      Tracker.addSteps(1);
      return E.episodeReward();
    };

    auto randomGenome = [&] {
      std::vector<int64_t> Genome(Options.size());
      for (size_t I = 0; I < Options.size(); ++I)
        Genome[I] = static_cast<int64_t>(
            Gen.bounded(static_cast<uint64_t>(Options[I].Cardinality)));
      return Genome;
    };

    struct Individual {
      std::vector<int64_t> Genome;
      double Fitness = 0.0;
    };
    std::vector<Individual> Population;

    // Seed population: the default config plus randoms.
    Individual Default;
    Default.Genome = Spec.defaultChoices();
    CG_ASSIGN_OR_RETURN(Default.Fitness, evaluate(Default.Genome));
    Population.push_back(std::move(Default));
    while (Population.size() < PopulationSize && !Tracker.exhausted()) {
      Individual Ind;
      Ind.Genome = randomGenome();
      CG_ASSIGN_OR_RETURN(Ind.Fitness, evaluate(Ind.Genome));
      Population.push_back(std::move(Ind));
    }

    auto updateBest = [&] {
      for (const Individual &Ind : Population) {
        if (Ind.Fitness > Result.BestReward ||
            Result.BestActions.empty()) {
          if (Ind.Fitness >= Result.BestReward) {
            Result.BestReward = Ind.Fitness;
            Result.BestActions.assign(Ind.Genome.begin(), Ind.Genome.end());
          }
        }
      }
    };
    updateBest();

    const double MutationProb = 0.1;   // Package defaults.
    const double CrossoverProb = 0.5;
    const double EliteFraction = 0.01;

    while (!Tracker.exhausted()) {
      std::sort(Population.begin(), Population.end(),
                [](const Individual &A, const Individual &B) {
                  return A.Fitness > B.Fitness;
                });
      size_t Elites = std::max<size_t>(
          1, static_cast<size_t>(EliteFraction *
                                 static_cast<double>(Population.size())));
      std::vector<Individual> Next(Population.begin(),
                                   Population.begin() +
                                       static_cast<long>(Elites));

      // Roulette weights shifted to be positive.
      double MinFit = Population.back().Fitness;
      std::vector<double> Weights;
      for (const Individual &Ind : Population)
        Weights.push_back(Ind.Fitness - MinFit + 1e-6);

      auto makeChild = [&] {
        const Individual &ParentA = Population[Gen.weightedIndex(Weights)];
        const Individual &ParentB = Population[Gen.weightedIndex(Weights)];
        std::vector<int64_t> Genome = ParentA.Genome;
        for (size_t I = 0; I < Genome.size(); ++I) {
          if (Gen.chance(CrossoverProb))
            Genome[I] = ParentB.Genome[I];
          if (Gen.chance(MutationProb))
            Genome[I] = static_cast<int64_t>(Gen.bounded(
                static_cast<uint64_t>(Options[I].Cardinality)));
        }
        return Genome;
      };

      while (Next.size() < Population.size() && !Tracker.exhausted()) {
        Individual Child;
        Child.Genome = makeChild();
        CG_ASSIGN_OR_RETURN(Child.Fitness, evaluate(Child.Genome));
        Next.push_back(std::move(Child));
      }
      Population = std::move(Next);
      updateBest();
    }

    Result.StepsUsed = Tracker.steps();
    Result.CompilationsUsed = Tracker.compilations();
    Result.WallSeconds = Tracker.wallSeconds();
    return Result;
  }

private:
  Rng Gen;
  size_t PopulationSize;
};

} // namespace

std::unique_ptr<Search>
autotune::createGccGeneticAlgorithm(uint64_t Seed, size_t Population) {
  return std::make_unique<GccGeneticAlgorithm>(Seed, Population);
}
