//===- passes/PassManager.cpp ---------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/PassManager.h"

#include "fault/FaultRegistry.h"
#include "ir/Printer.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"

using namespace compiler_gym;
using namespace compiler_gym::passes;

namespace {

telemetry::Counter &passesRunTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_passes_run_total", {}, "Transformation pass executions");
  return C;
}

} // namespace

PassManager::PassManager(ir::Module &M)
    : M(M),
#ifdef NDEBUG
      VerifyPreservation(false)
#else
      VerifyPreservation(true)
#endif
{
}

Pass *PassManager::getPass(const std::string &Name) {
  auto It = Instances.find(Name);
  if (It != Instances.end())
    return It->second.get();
  std::unique_ptr<Pass> P = PassRegistry::instance().create(Name);
  if (!P)
    return nullptr;
  ++St.PassInstancesCreated;
  return Instances.emplace(Name, std::move(P)).first->second.get();
}

StatusOr<bool> PassManager::run(Pass &P) {
  // Poll before starting a pass: a pipeline whose budget ran out stops on
  // a pass boundary with the module untouched since the last completed
  // pass. (The poll itself proves liveness to the hung-shard watchdog.)
  if (Cancel && Cancel->poll())
    return deadlineExceeded("pipeline cancelled before pass '" + P.name() +
                            "'");
  // Chaos hook: delay rules here simulate slow or spinning passes (the
  // CancelAware=false variant is the watchdog acceptance test's wedge);
  // error rules simulate a pass failing outright.
  if (fault::FaultAction F = CG_FAULT_POINT("passes.run", Cancel)) {
    if (F.isError())
      return F.Error;
  }
  telemetry::SpanScope Span(telemetry::Tracer::global().enabled()
                                ? "pass:" + P.name()
                                : std::string(),
                            "passes");
  if (!P.Latency)
    P.Latency = &telemetry::MetricsRegistry::global().histogram(
        "cg_pass_latency_us", {{"pass", P.name()}},
        "Transformation pass latency by pass (us)");
  Stopwatch Watch;
  PassResult R = P.run(M, AM);
  P.Latency->observeUs(Watch.elapsedUs());
  passesRunTotal().inc();
  // The pass reported its edits to AM as it made them (FunctionPass::run
  // per changed function); the verifier catches one it did not report.
  if (VerifyPreservation) {
    CG_RETURN_IF_ERROR(AM.verifyCachedAnalyses(M, P.name()));
    // Snapshots are M.freeze(): a pass that changed a copy without
    // reporting it would leave a snapshot unlike the state its key names.
    if (ir::printModule(*M.freeze()) != ir::printModule(M))
      return internalError("pass '" + P.name() +
                           "' changed a function but did not report it");
  }
  // Cancelled mid-pass (between functions): bookkeeping above is still
  // applied for the functions that did run, then the abort surfaces so the
  // session can revert to its last committed state.
  if (R.Cancelled)
    return deadlineExceeded("pass '" + P.name() + "' cancelled mid-run");
  return R.Changed;
}

StatusOr<bool> PassManager::run(const std::string &Name) {
  Pass *P = getPass(Name);
  if (!P)
    return notFound("unknown pass '" + Name + "'");
  return run(*P);
}

StatusOr<bool> PassManager::runPipeline(const std::vector<std::string> &Names) {
  bool Changed = false;
  for (const std::string &Name : Names) {
    CG_ASSIGN_OR_RETURN(bool PassChanged, run(Name));
    Changed |= PassChanged;
  }
  return Changed;
}

StatusOr<bool>
PassManager::runToFixpoint(const std::vector<std::string> &Names,
                           int MaxRounds) {
  bool Changed = false;
  for (int Round = 0; Round < MaxRounds; ++Round) {
    CG_ASSIGN_OR_RETURN(bool RoundChanged, runPipeline(Names));
    if (!RoundChanged)
      break;
    Changed = true;
  }
  return Changed;
}

StatusOr<bool> passes::runPass(ir::Module &M, const std::string &Name) {
  PassManager PM(M);
  return PM.run(Name);
}
