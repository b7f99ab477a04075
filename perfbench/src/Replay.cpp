//===- perfbench/src/Replay.cpp - Reference replay of episodes ------------===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "analysis/Autophase.h"
#include "analysis/Inst2vec.h"
#include "analysis/InstCount.h"
#include "analysis/ProGraML.h"
#include "analysis/Rewards.h"
#include "datasets/DatasetRegistry.h"
#include "ir/Parser.h"
#include "passes/PassManager.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace compiler_gym;

namespace {

template <typename FnT> auto timed(std::vector<double> &Sink, FnT &&F) {
  const double T0 = nowUs();
  auto R = F();
  Sink.push_back(nowUs() - T0);
  return R;
}

std::string describe(const Episode &E, const std::string &What) {
  std::ostringstream OS;
  OS << E.Uri << " actions=[";
  for (size_t I = 0; I < E.Actions.size(); ++I)
    OS << (I ? "," : "") << E.Actions[I];
  OS << "]: " << What;
  return OS.str();
}

/// Replays one episode; returns "" when it matches, else what differed.
std::string replayOne(const Episode &E,
                      const std::vector<std::string> &ActionNames,
                      bool TimeLayers, ReplayResult &Out) {
  auto Bench = timed(Out.ResolveUs, [&] {
    return datasets::DatasetRegistry::instance().resolve(E.Uri);
  });
  if (!Bench.isOk())
    return "resolve failed: " + Bench.status().toString();
  auto Parsed =
      timed(Out.ParseUs, [&] { return ir::parseModule(Bench->IrText); });
  if (!Parsed.isOk())
    return "parse failed: " + Parsed.status().toString();
  std::unique_ptr<ir::Module> M = Parsed.takeValue();
  const int64_t InitialCount = analysis::codeSize(*M);

  passes::PassManager PM(*M);
  for (int A : E.Actions) {
    if (A < 0 || static_cast<size_t>(A) >= ActionNames.size())
      return "action " + std::to_string(A) + " out of range";
    auto R = timed(Out.PassRunUs, [&] { return PM.run(ActionNames[A]); });
    if (!R.isOk())
      return "pass " + ActionNames[A] + " failed: " + R.status().toString();
  }

  std::vector<int64_t> Autophase =
      timed(Out.AutophaseUs, [&] { return analysis::autophase(*M); });
  std::vector<int64_t> InstCount =
      timed(Out.InstCountUs, [&] { return analysis::instCount(*M); });
  const int64_t FinalCount = analysis::codeSize(*M);
  if (TimeLayers) {
    (void)timed(Out.ProgramlUs, [&] {
      return analysis::serializeGraph(analysis::buildProgramGraph(*M));
    });
    (void)timed(Out.Inst2vecUs, [&] { return analysis::inst2vec(*M); });
    (void)timed(Out.ShareUs, [&] { return M->share(); });
    (void)timed(Out.CloneUs, [&] { return M->clone(); });
  }

  std::string Diff;
  if (Autophase != E.Autophase)
    Diff += "Autophase differs; ";
  if (InstCount != E.InstCount)
    Diff += "InstCount differs; ";
  if (FinalCount != E.IrInstructionCount)
    Diff += "IrInstructionCount " + std::to_string(E.IrInstructionCount) +
            " vs reference " + std::to_string(FinalCount) + "; ";
  const double RefReward = static_cast<double>(InitialCount - FinalCount);
  if (std::fabs(RefReward - E.Reward) > 1e-9)
    Diff += "episode reward " + std::to_string(E.Reward) + " vs reference " +
            std::to_string(RefReward) + "; ";
  if (Bench->Runnable) {
    auto Reference = ir::parseModule(Bench->IrText);
    if (!Reference.isOk())
      return Diff + "reference parse failed";
    ir::InterpreterOptions IOpts;
    IOpts.Args = Bench->Inputs;
    analysis::ValidationResult V =
        analysis::validateSemantics(**Reference, *M, IOpts);
    ++Out.SemanticsChecked;
    if (!V.Ok)
      Diff += "semantics: " + V.Error + "; ";
  }
  return Diff;
}

void append(std::vector<double> &To, const std::vector<double> &From) {
  To.insert(To.end(), From.begin(), From.end());
}

} // namespace

ReplayResult replayEpisodes(const std::vector<const Episode *> &Episodes,
                            const std::vector<std::string> &ActionNames,
                            int Threads, bool TimeLayers) {
  const size_t N =
      std::max<size_t>(1, std::min<size_t>(Threads, Episodes.size()));
  std::vector<ReplayResult> Parts(N);
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < N; ++T)
    Pool.emplace_back([&, T] {
      for (size_t I; (I = Next.fetch_add(1)) < Episodes.size();) {
        std::string Diff =
            replayOne(*Episodes[I], ActionNames, TimeLayers, Parts[T]);
        if (!Diff.empty())
          Parts[T].Mismatches.push_back(describe(*Episodes[I], Diff));
      }
    });
  for (std::thread &T : Pool)
    T.join();

  ReplayResult Out;
  Out.Episodes = Episodes.size();
  for (ReplayResult &P : Parts) {
    Out.SemanticsChecked += P.SemanticsChecked;
    Out.Mismatches.insert(Out.Mismatches.end(), P.Mismatches.begin(),
                          P.Mismatches.end());
    append(Out.ResolveUs, P.ResolveUs);
    append(Out.ParseUs, P.ParseUs);
    append(Out.PassRunUs, P.PassRunUs);
    append(Out.ShareUs, P.ShareUs);
    append(Out.CloneUs, P.CloneUs);
    append(Out.AutophaseUs, P.AutophaseUs);
    append(Out.InstCountUs, P.InstCountUs);
    append(Out.ProgramlUs, P.ProgramlUs);
    append(Out.Inst2vecUs, P.Inst2vecUs);
  }
  return Out;
}

} // namespace perfbench
