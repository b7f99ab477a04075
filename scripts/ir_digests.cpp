//===- scripts/ir_digests.cpp - Printed-IR digests of pass runs -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Prints one line per (program, run) with a digest of the printed module:
//
//   <uri> <run> <fnv1a of printModule, or error:<code>>
//
// The runs, each on its own copy of the program: every registered pass
// except gvn-sink (it orders blocks by pointer, so two runs of one build
// disagree); every -O level; mem2reg followed by each of those passes; and
// a 12-action sequence drawn from the action space with a seed derived from
// the URI, digested after every step. Every pass also runs on a share() of
// the parse and of the mem2reg result, each kept alive ("share,<pass>" and
// "mem2reg,share,<pass>"): all functions start shared, as after a reset or
// a fork, which is the path where a pass skips the functions its
// mayChange() rules out. The programs: every cbench-v1 and
// chstone-v0 benchmark, and programs 0-15 of csmith-v0, llvm-stress-v0 and
// poj104-v1.
//
// Two builds of the library that print the same lines transform every
// program alike. scripts/compare_ir_digests.py builds this program against
// two commits and diffs the lines; to build it by hand:
//
//   c++ -std=c++20 -O2 -I src -I . scripts/ir_digests.cpp \
//       <libcompiler_gym.a or libcg_perfbench_lib.a> -lpthread
//
//===----------------------------------------------------------------------===//

#include "datasets/DatasetRegistry.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/PassManager.h"
#include "passes/PassRegistry.h"
#include "passes/Pipelines.h"
#include "util/Hash.h"

#include <cinttypes>
#include <cstdio>
#include <random>

using namespace compiler_gym;

namespace {

void emit(const std::string &Uri, const std::string &Run,
          const Status &S, const ir::Module &M) {
  if (!S.isOk()) {
    std::printf("%s %s error:%d\n", Uri.c_str(), Run.c_str(),
                static_cast<int>(S.code()));
    return;
  }
  std::printf("%s %s %016" PRIx64 "\n", Uri.c_str(), Run.c_str(),
              fnv1a(ir::printModule(M)));
}

std::vector<std::string> corpus() {
  std::vector<std::string> Uris;
  const auto &Registry = datasets::DatasetRegistry::instance();
  for (const char *Curated : {"benchmark://cbench-v1", "benchmark://chstone-v0"})
    if (const datasets::Dataset *D = Registry.dataset(Curated))
      for (const std::string &Name : D->benchmarkNames(D->size()))
        Uris.push_back(std::string(Curated) + "/" + Name);
  for (const char *Generated : {"benchmark://csmith-v0",
                                "benchmark://llvm-stress-v0",
                                "benchmark://poj104-v1"})
    for (int I = 0; I < 16; ++I)
      Uris.push_back(std::string(Generated) + "/" + std::to_string(I));
  return Uris;
}

} // namespace

int main() {
  std::vector<std::string> Passes;
  for (const std::string &Name : passes::PassRegistry::instance().allNames())
    if (Name != "gvn-sink")
      Passes.push_back(Name);
  const std::vector<std::string> &Actions =
      passes::PassRegistry::instance().defaultActionNames();

  for (const std::string &Uri : corpus()) {
    auto B = datasets::DatasetRegistry::instance().resolve(Uri);
    if (!B.isOk()) {
      std::printf("%s resolve error:%d\n", Uri.c_str(),
                  static_cast<int>(B.status().code()));
      continue;
    }
    auto parse = [&] { return ir::parseModule(B->IrText).takeValue(); };

    for (const std::string &Pass : Passes) {
      auto M = parse();
      emit(Uri, Pass, passes::runPass(*M, Pass).status(), *M);
    }
    auto Parsed = parse();
    for (const std::string &Pass : Passes) {
      auto M = Parsed->share();
      emit(Uri, "share," + Pass, passes::runPass(*M, Pass).status(), *M);
    }
    for (const std::string &Level : passes::optimizationLevels()) {
      auto M = parse();
      emit(Uri, Level, passes::runOptimizationLevel(*M, Level), *M);
    }
    auto Promoted = parse();
    Status Mem2Reg = passes::runPass(*Promoted, "mem2reg").status();
    emit(Uri, "mem2reg", Mem2Reg, *Promoted);
    if (Mem2Reg.isOk()) {
      for (const std::string &Pass : Passes) {
        auto M = Promoted->clone();
        emit(Uri, "mem2reg," + Pass, passes::runPass(*M, Pass).status(), *M);
        M = Promoted->share();
        emit(Uri, "mem2reg,share," + Pass, passes::runPass(*M, Pass).status(),
             *M);
      }
    }
    auto M = parse();
    passes::PassManager PM(*M);
    std::mt19937_64 Gen(fnv1a(Uri));
    std::string Sequence = "seq";
    for (int Step = 0; Step < 12; ++Step) {
      const std::string &Action =
          Actions[std::uniform_int_distribution<size_t>(
              0, Actions.size() - 1)(Gen)];
      Sequence += "," + Action;
      Status S = PM.run(Action).status();
      emit(Uri, Sequence, S, *M);
      if (!S.isOk())
        break;
    }
  }
  return 0;
}
