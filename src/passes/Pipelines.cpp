//===- passes/Pipelines.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Pipelines.h"

#include "passes/PassManager.h"

#include <map>

using namespace compiler_gym;
using namespace compiler_gym::passes;

std::vector<std::string> passes::optimizationLevels() {
  return {"-O0", "-O1", "-O2", "-O3", "-Os", "-Oz"};
}

namespace {

/// Level -> pass list, constructed once per process (pipelineForLevel used
/// to rebuild these vectors from string literals on every call — and it is
/// called per candidate in the autotuners' inner loops).
const std::map<std::string, std::vector<std::string>> &pipelineTable() {
  static const std::map<std::string, std::vector<std::string>> Table = {
      {"-O0", {}},
      {"-O1",
       {
           "mem2reg",     "instcombine", "simplifycfg",
           "early-cse",   "dce",         "phi-simplify",
       }},
      {"-O2",
       {
           "mem2reg",       "instcombine", "simplifycfg",  "sccp",
           "inline<100>",   "early-cse",   "gvn",          "loop-simplify",
           "licm",          "reassociate", "instcombine",  "jump-threading",
           "simplifycfg",   "dse-local",   "store-forward", "adce",
           "phi-simplify",
       }},
      {"-O3",
       {
           "mem2reg",        "instcombine",     "simplifycfg",
           "sccp",           "inline<300>",     "early-cse",
           "gvn",            "loop-simplify",   "licm-promote",
           "loop-unroll<32>", "reassociate",    "instcombine",
           "jump-threading", "simplifycfg",     "dse-local",
           "store-forward",  "redundant-load-elim", "sink",
           "adce",           "phi-simplify",    "global-dce",
       }},
      {"-Os",
       {
           "mem2reg",      "instcombine", "simplifycfg", "sccp",
           "inline<20>",   "early-cse",   "gvn",         "loop-simplify",
           "licm",         "loop-delete", "dse-local",   "store-forward",
           "adce",         "phi-simplify", "simplifycfg", "global-dce",
       }},
      {"-Oz",
       {
           "mem2reg",      "instcombine",  "simplifycfg", "sccp",
           "early-cse",    "gvn",          "loop-simplify", "licm",
           "loop-delete",  "dse-local",    "store-forward",
           "redundant-load-elim", "adce",  "phi-simplify", "simplifycfg",
           "global-dce",
       }},
  };
  return Table;
}

} // namespace

StatusOr<std::vector<std::string>>
passes::pipelineForLevel(const std::string &Level) {
  const auto &Table = pipelineTable();
  auto It = Table.find(Level);
  if (It == Table.end())
    return notFound("unknown optimization level '" + Level + "'");
  return It->second;
}

Status passes::runOptimizationLevel(ir::Module &M, const std::string &Level) {
  CG_ASSIGN_OR_RETURN(std::vector<std::string> Pipeline,
                      pipelineForLevel(Level));
  if (Pipeline.empty())
    return Status::ok();
  PassManager PM(M);
  return PM.runToFixpoint(Pipeline, /*MaxRounds=*/3).status();
}
