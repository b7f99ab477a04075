//===- envs/gcc/GccSession.cpp --------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "envs/gcc/GccSession.h"

#include "ir/Lowering.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/PassManager.h"
#include "passes/Pipelines.h"

#include <algorithm>
#include <mutex>

using namespace compiler_gym;
using namespace compiler_gym::envs;
using namespace compiler_gym::service;

const GccOptionSpace &GccSession::optionSpace() {
  static GccOptionSpace Space(11);
  return Space;
}

GccSession::GccSession() = default;

std::vector<ActionSpace> GccSession::getActionSpaces() {
  const GccOptionSpace &Spec = optionSpace();
  ActionSpace Categorical;
  Categorical.Name = "gcc-categorical-v0";
  Categorical.ActionNames.reserve(Spec.actions().size());
  for (const GccAction &A : Spec.actions())
    Categorical.ActionNames.push_back(A.Name);

  ActionSpace Direct;
  Direct.Name = "gcc-direct-v0";
  Direct.ActionNames = {"set-choices"}; // Values carried in Action::Values.
  return {Categorical, Direct};
}

std::vector<ObservationSpaceInfo> GccSession::getObservationSpaces() {
  auto info = [](const char *Name, ObservationType Ty) {
    ObservationSpaceInfo O;
    O.Name = Name;
    O.Type = Ty;
    if (Ty == ObservationType::Int64Value)
      O.RangeMin = 0.0; // All scalar spaces here are sizes/counts.
    O.Deterministic = true;
    O.PlatformDependent = Ty != ObservationType::Int64List;
    return O;
  };
  ObservationSpaceInfo Choices = info("Choices", ObservationType::Int64List);
  const std::vector<GccOption> &Options = optionSpace().options();
  Choices.Shape = {static_cast<int64_t>(Options.size())};
  Choices.RangeMin = 0.0;
  int64_t MaxCardinality = 0;
  for (const GccOption &O : Options)
    MaxCardinality = std::max(MaxCardinality, O.Cardinality);
  Choices.RangeMax = static_cast<double>(MaxCardinality - 1);
  return {
      info("InstructionCount", ObservationType::Int64Value),
      Choices,
      info("Rtl", ObservationType::String),
      info("Asm", ObservationType::String),
      info("Obj", ObservationType::Binary),
      info("AsmSizeBytes", ObservationType::Int64Value),
      info("ObjSizeBytes", ObservationType::Int64Value),
      info("ObjSizeOs", ObservationType::Int64Value),
  };
}

Status GccSession::init(const ActionSpace &Space,
                        const datasets::Benchmark &Bench) {
  DirectSpace = Space.Name == "gcc-direct-v0";
  CG_ASSIGN_OR_RETURN(Source, ir::parseModule(Bench.IrText));
  Choices = optionSpace().defaultChoices();
  Dirty = true;
  Compiled.reset();
  BaselineOsSize = -1;
  return Status::ok();
}

Status GccSession::applyAction(const Action &A, bool &EndOfEpisode,
                               bool &ActionSpaceChanged) {
  EndOfEpisode = false;
  ActionSpaceChanged = false;
  if (!Source)
    return failedPrecondition("session not initialized");
  const GccOptionSpace &Spec = optionSpace();
  if (DirectSpace) {
    if (A.Values.size() != Spec.options().size())
      return invalidArgument(
          "direct action needs " + std::to_string(Spec.options().size()) +
          " choices, got " + std::to_string(A.Values.size()));
    Choices = A.Values;
    for (size_t I = 0; I < Choices.size(); ++I)
      Choices[I] = std::clamp<int64_t>(Choices[I], 0,
                                       Spec.options()[I].Cardinality - 1);
  } else {
    if (A.Index < 0 || static_cast<size_t>(A.Index) >= Spec.actions().size())
      return outOfRange("gcc action " + std::to_string(A.Index) +
                        " out of range");
    Spec.applyAction(static_cast<size_t>(A.Index), Choices);
  }
  Dirty = true;
  return Status::ok();
}

Status GccSession::recompileIfNeeded() {
  if (!Dirty && Compiled)
    return Status::ok();
  GccOptionSpace::CompilePlan Plan = optionSpace().plan(Choices);
  // Structural share: the pipeline copy-on-writes the functions it
  // actually changes; untouched functions stay physically shared with
  // Source.
  Compiled = Source->share();

  CG_ASSIGN_OR_RETURN(std::vector<std::string> Pipeline,
                      passes::pipelineForLevel(Plan.OLevel));
  // Flags edit the -O pipeline: -fno-* removes, -f* appends.
  for (const std::string &Disabled : Plan.DisabledPasses)
    Pipeline.erase(std::remove(Pipeline.begin(), Pipeline.end(), Disabled),
                   Pipeline.end());
  for (const std::string &Extra : Plan.ExtraPasses)
    if (std::find(Pipeline.begin(), Pipeline.end(), Extra) == Pipeline.end())
      Pipeline.push_back(Extra);
  if (Plan.InlineThreshold > 0)
    Pipeline.push_back("inline<" + std::to_string(std::min(
                           450u, Plan.InlineThreshold)) + ">");
  if (Plan.UnrollTripLimit > 1)
    Pipeline.push_back("loop-unroll<" + std::to_string(std::min(
                           128u, Plan.UnrollTripLimit)) + ">");

  // Parameterized pass names must exist in the registry; the values in the
  // option table are chosen from the registered grid, so lookups succeed —
  // guard anyway to fail loud on spec drift.
  for (const std::string &Name : Pipeline)
    if (!passes::PassRegistry::instance().contains(Name))
      return internalError("gcc option spec references unknown pass '" +
                           Name + "'");

  passes::PassManager PM(*Compiled);
  CG_RETURN_IF_ERROR(
      PM.runToFixpoint(Pipeline, std::max(1, Plan.PipelineRounds)).status());
  Dirty = false;
  return Status::ok();
}

Status GccSession::computeObservation(const ObservationSpaceInfo &Space,
                                      Observation &Out) {
  if (!Source)
    return failedPrecondition("session not initialized");
  Out.Type = Space.Type;
  const std::string &Name = Space.Name;
  if (Name == "Choices") {
    Out.Ints = Choices;
    return Status::ok();
  }
  CG_RETURN_IF_ERROR(recompileIfNeeded());
  if (Name == "InstructionCount") {
    Out.IntValue = static_cast<int64_t>(Compiled->instructionCount());
    return Status::ok();
  }
  if (Name == "Rtl") {
    Out.Str = ir::printModule(*Compiled);
    return Status::ok();
  }
  ir::LoweredModule Lowered =
      ir::lowerModule(*Compiled, ir::TargetDescriptor(),
                      /*EmitText=*/Name == "Asm" || Name == "AsmSizeBytes");
  if (Name == "Asm") {
    Out.Str = Lowered.Assembly;
    return Status::ok();
  }
  if (Name == "Obj") {
    Out.Str = Lowered.ObjectBytes;
    return Status::ok();
  }
  if (Name == "AsmSizeBytes") {
    Out.IntValue = static_cast<int64_t>(Lowered.Assembly.size());
    return Status::ok();
  }
  if (Name == "ObjSizeBytes") {
    Out.IntValue = static_cast<int64_t>(Lowered.ObjectBytes.size());
    return Status::ok();
  }
  if (Name == "ObjSizeOs") {
    if (BaselineOsSize < 0) {
      std::unique_ptr<ir::Module> Baseline = Source->share();
      CG_RETURN_IF_ERROR(passes::runOptimizationLevel(*Baseline, "-Os"));
      BaselineOsSize = static_cast<int64_t>(
          ir::lowerModule(*Baseline).ObjectBytes.size());
    }
    Out.IntValue = BaselineOsSize;
    return Status::ok();
  }
  return notFound("unknown observation space '" + Name + "'");
}

StatusOr<std::unique_ptr<CompilationSession>> GccSession::fork() {
  auto Clone = std::make_unique<GccSession>();
  Clone->DirectSpace = DirectSpace;
  Clone->Source = Source ? Source->share() : nullptr;
  Clone->Compiled = Compiled ? Compiled->share() : nullptr;
  Clone->Choices = Choices;
  Clone->Dirty = Dirty;
  Clone->BaselineOsSize = BaselineOsSize;
  return StatusOr<std::unique_ptr<CompilationSession>>(std::move(Clone));
}

void envs::registerGccEnvironment() {
  static std::once_flag Flag;
  std::call_once(Flag, [] {
    service::registerCompilationSession(
        "gcc", [] { return std::make_unique<GccSession>(); });
  });
}
