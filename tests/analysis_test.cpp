//===- tests/analysis_test.cpp - Observation space tests -------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Autophase.h"
#include "analysis/InstCount.h"
#include "analysis/Inst2vec.h"
#include "analysis/ProGraML.h"
#include "analysis/Rewards.h"
#include "datasets/CsmithGenerator.h"
#include "datasets/CuratedSuites.h"
#include "ir/Parser.h"
#include "passes/PassManager.h"
#include "telemetry/MetricsRegistry.h"

#include <gtest/gtest.h>

using namespace compiler_gym;
using namespace compiler_gym::analysis;
using namespace compiler_gym::ir;

namespace {

/// Per-function feature recomputes across every cache in the process;
/// tests diff it across a window that runs one cache.
telemetry::Counter &recomputes() {
  return telemetry::MetricsRegistry::global().counter(
      "cg_feature_recomputes_total");
}

std::unique_ptr<Module> smallModule() {
  auto M = parseModule(R"(module "t"
global @g = words 4
func @main(i64 %n) -> i64 {
entry:
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %a, label %b
a:
  %x = mul i64 i64 %n, i64 2
  store i64 %x, ptr @g
  br label %b
b:
  %r = phi i64 [ %x, %a ], [ 0, %entry ]
  ret i64 %r
}
)");
  EXPECT_TRUE(M.isOk());
  return M.takeValue();
}

TEST(InstCount, HasSeventyDimsWithDocumentedLayout) {
  auto M = smallModule();
  std::vector<int64_t> V = instCount(*M);
  ASSERT_EQ(V.size(), 70u);
  EXPECT_EQ(V[0], 7); // Total instructions.
  EXPECT_EQ(V[1], 3); // Blocks.
  EXPECT_EQ(V[2], 1); // Functions.
  EXPECT_EQ(V[3 + static_cast<int>(Opcode::Mul)], 1);
  EXPECT_EQ(V[3 + static_cast<int>(Opcode::Phi)], 1);
  EXPECT_EQ(V[3 + static_cast<int>(Opcode::Store)], 1);
  EXPECT_EQ(V[45], 1); // Globals.
  EXPECT_EQ(V[47], 2); // Phi incoming arcs.
}

TEST(InstCount, PerFunctionDecompositionMatchesWholeModule) {
  // The incremental observation path aggregates per-function vectors; the
  // decomposition must reproduce the whole-module scan exactly, including
  // the max-aggregated block-size dim and the module-level counts.
  for (uint64_t Seed : {1ull, 17ull, 42ull}) {
    datasets::ProgramStyle Style = datasets::styleForDataset(
        Seed % 2 ? "benchmark://csmith-v0" : "benchmark://npb-v0");
    auto M = datasets::generateProgram(Seed, Style, "m");
    std::vector<int64_t> Agg(InstCountDims, 0);
    for (const auto &F : M->functions())
      accumulateInstCount(Agg, instCountFunction(*F));
    finalizeInstCount(Agg, *M);
    EXPECT_EQ(Agg, instCount(*M)) << "seed " << Seed;
  }
}

TEST(Autophase, PerFunctionDecompositionMatchesWholeModule) {
  for (uint64_t Seed : {2ull, 19ull, 44ull}) {
    datasets::ProgramStyle Style = datasets::styleForDataset(
        Seed % 2 ? "benchmark://csmith-v0" : "benchmark://npb-v0");
    auto M = datasets::generateProgram(Seed, Style, "m");
    std::vector<int64_t> Agg(AutophaseDims, 0);
    for (const auto &F : M->functions())
      accumulateAutophase(Agg, autophaseFunction(*F));
    finalizeAutophase(Agg, *M);
    EXPECT_EQ(Agg, autophase(*M)) << "seed " << Seed;
  }
}

TEST(InstCount, RespondsToOptimization) {
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://csmith-v0");
  auto M = datasets::generateProgram(3, Style, "m");
  std::vector<int64_t> Before = instCount(*M);
  ASSERT_TRUE(passes::runPass(*M, "mem2reg").isOk());
  std::vector<int64_t> After = instCount(*M);
  EXPECT_LT(After[0], Before[0]);
  EXPECT_LT(After[3 + static_cast<int>(Opcode::Alloca)],
            Before[3 + static_cast<int>(Opcode::Alloca)]);
}

TEST(Autophase, HasFiftySixNamedDims) {
  auto M = smallModule();
  std::vector<int64_t> V = autophase(*M);
  ASSERT_EQ(V.size(), 56u);
  for (int I = 0; I < AutophaseDims; ++I)
    EXPECT_STRNE(autophaseFeatureName(I), "?");
  EXPECT_STREQ(autophaseFeatureName(0), "bb_count");
  EXPECT_STREQ(autophaseFeatureName(-1), "?");
  EXPECT_STREQ(autophaseFeatureName(56), "?");
  EXPECT_EQ(V[0], 3);  // bb_count.
}

TEST(Autophase, CfgFeaturesMatchStructure) {
  auto M = smallModule();
  std::vector<int64_t> V = autophase(*M);
  // One two-successor block (entry), one one-succ (a), one no-succ (b).
  EXPECT_EQ(V[2], 1); // bb_two_succ.
  EXPECT_EQ(V[1], 1); // bb_one_succ.
  EXPECT_EQ(V[6], 1); // bb_no_succ.
  EXPECT_EQ(V[16], 1); // cond_branches.
  EXPECT_EQ(V[15], 1); // branches.
  EXPECT_EQ(V[17], 1); // phi_count.
  EXPECT_EQ(V[18], 2); // phi_arg_count.
}

TEST(Autophase, DistinguishesDatasetStyles) {
  // Feature distributions must differ across dataset styles (this is what
  // makes Tables VI/VII meaningful).
  int64_t BlasFloatOps = 0, LinuxFloatOps = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    auto Loopy = datasets::generateProgram(
        Seed, datasets::styleForDataset("benchmark://blas-v0"), "a");
    auto Branchy = datasets::generateProgram(
        Seed, datasets::styleForDataset("benchmark://linux-v0"), "b");
    BlasFloatOps += autophase(*Loopy)[31];   // float_binop_count.
    LinuxFloatOps += autophase(*Branchy)[31];
  }
  // blas: float-heavy; linux: no floats at all.
  EXPECT_GT(BlasFloatOps, 0);
  EXPECT_EQ(LinuxFloatOps, 0);
}

TEST(Inst2vec, EmitsOneEmbeddingPerInstruction) {
  auto M = smallModule();
  std::vector<float> E = inst2vec(*M);
  EXPECT_EQ(E.size(), M->instructionCount() * Inst2vecDims);
}

TEST(Inst2vec, DeterministicAndStatementSensitive) {
  auto M = smallModule();
  EXPECT_EQ(inst2vec(*M), inst2vec(*M));
  const Instruction *Mul = nullptr, *Store = nullptr;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        if (I.opcode() == Opcode::Mul)
          Mul = &I;
        if (I.opcode() == Opcode::Store)
          Store = &I;
      });
  ASSERT_NE(Mul, nullptr);
  ASSERT_NE(Store, nullptr);
  EXPECT_NE(inst2vecStatement(*Mul), inst2vecStatement(*Store));
}

TEST(Inst2vec, AbstractsIdentifiers) {
  // Two adds of different locals embed identically (identifier-abstracted),
  // while add-of-constant differs.
  auto M = parseModule(R"(module "t"
func @main(i64 %a, i64 %b) -> i64 {
entry:
  %x = add i64 i64 %a, i64 %b
  %y = add i64 i64 %b, i64 %x
  %z = add i64 i64 %a, i64 5
  ret i64 %z
}
)");
  ASSERT_TRUE(M.isOk());
  std::vector<const Instruction *> Adds;
  (*M)->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        if (I.opcode() == Opcode::Add)
          Adds.push_back(&I);
      });
  ASSERT_EQ(Adds.size(), 3u);
  EXPECT_EQ(inst2vecStatement(*Adds[0]), inst2vecStatement(*Adds[1]));
  EXPECT_NE(inst2vecStatement(*Adds[0]), inst2vecStatement(*Adds[2]));
}

TEST(ProGraML, GraphStructureMatchesProgram) {
  auto M = smallModule();
  ProgramGraph G = buildProgramGraph(*M);
  // Nodes: 1 function + 1 global + 1 arg + 7 instructions + constants.
  size_t InstNodes = 0, DataEdges = 0, ControlEdges = 0, CallEdges = 0;
  for (const auto &N : G.Nodes)
    InstNodes += N.Kind == ProgramGraph::NodeKind::Instruction;
  for (const auto &E : G.Edges) {
    DataEdges += E.Flow == ProgramGraph::EdgeFlow::Data;
    ControlEdges += E.Flow == ProgramGraph::EdgeFlow::Control;
    CallEdges += E.Flow == ProgramGraph::EdgeFlow::Call;
  }
  EXPECT_EQ(InstNodes, M->instructionCount());
  EXPECT_GT(DataEdges, 0u);
  EXPECT_GT(ControlEdges, 0u);
  EXPECT_EQ(CallEdges, 1u); // Function -> entry.
  // Edge endpoints are in range.
  for (const auto &E : G.Edges) {
    EXPECT_GE(E.Source, 0);
    EXPECT_LT(static_cast<size_t>(E.Source), G.numNodes());
    EXPECT_LT(static_cast<size_t>(E.Target), G.numNodes());
  }
}

TEST(ProGraML, SerializationRoundTrips) {
  auto M = smallModule();
  ProgramGraph G = buildProgramGraph(*M);
  std::string Bytes = serializeGraph(G);
  ProgramGraph Out;
  ASSERT_TRUE(deserializeGraph(Bytes, Out));
  ASSERT_EQ(Out.numNodes(), G.numNodes());
  ASSERT_EQ(Out.numEdges(), G.numEdges());
  for (size_t I = 0; I < G.numNodes(); ++I) {
    EXPECT_EQ(Out.Nodes[I].Kind, G.Nodes[I].Kind);
    EXPECT_EQ(Out.Nodes[I].Text, G.Nodes[I].Text);
  }
}

TEST(ProGraML, DeserializeRejectsGarbage) {
  ProgramGraph Out;
  EXPECT_FALSE(deserializeGraph("", Out));
  EXPECT_FALSE(deserializeGraph("abc", Out));
  std::string Huge(8, '\xFF');
  EXPECT_FALSE(deserializeGraph(Huge, Out));
}

TEST(ProGraML, FragmentAssemblyMatchesWholeModuleBuild) {
  // The incremental path — per-function fragments assembled into the v2
  // encoding — must deserialize to a graph bit-identical to the reference
  // whole-module builder, across generated programs of every style.
  for (uint64_t Seed : {3ull, 19ull, 54ull}) {
    for (const char *Dataset :
         {"benchmark://csmith-v0", "benchmark://blas-v0",
          "benchmark://linux-v0", "benchmark://npb-v0"}) {
      auto M = datasets::generateProgram(
          Seed, datasets::styleForDataset(Dataset), "m");
      ASSERT_NE(M, nullptr);
      std::vector<GraphFragment> Frags;
      std::vector<const GraphFragment *> Ptrs;
      for (const auto &F : M->functions())
        Frags.push_back(buildGraphFragment(*F));
      for (const auto &Frag : Frags)
        Ptrs.push_back(&Frag);
      ProgramGraph FromFrags;
      ASSERT_TRUE(
          deserializeGraph(assembleGraphFragments(*M, Ptrs), FromFrags))
          << Dataset << " seed " << Seed;
      EXPECT_TRUE(FromFrags == buildProgramGraph(*M))
          << "fragment assembly diverged for " << Dataset << " seed " << Seed;
    }
  }
}

TEST(ProGraML, V2EncodingRejectsTruncation) {
  auto M = smallModule();
  std::vector<GraphFragment> Frags;
  std::vector<const GraphFragment *> Ptrs;
  for (const auto &F : M->functions())
    Frags.push_back(buildGraphFragment(*F));
  for (const auto &Frag : Frags)
    Ptrs.push_back(&Frag);
  std::string Bytes = assembleGraphFragments(*M, Ptrs);
  ProgramGraph Out;
  ASSERT_TRUE(deserializeGraph(Bytes, Out));
  for (size_t Len = 0; Len < Bytes.size(); Len += 3)
    EXPECT_FALSE(deserializeGraph(Bytes.substr(0, Len), Out))
        << "truncation to " << Len << " bytes accepted";
  // Trailing garbage is rejected too.
  EXPECT_FALSE(deserializeGraph(Bytes + "x", Out));
}

namespace {

/// Mutates exactly \p F: deletes one dead side-effect-free instruction if
/// it has one, otherwise inserts a dead add before the entry terminator.
/// Returns false only for functions with no entry block.
bool mutateOneFunction(Module &M, Function &F) {
  for (const auto &BB : F.blocks()) {
    for (size_t I = 0; I < BB->size(); ++I) {
      Instruction *Inst = BB->instructions()[I].get();
      if (Inst->isTerminator() || F.hasUses(Inst) || Inst->hasSideEffects())
        continue;
      BB->erase(I);
      return true;
    }
  }
  BasicBlock *Entry = F.entry();
  if (!Entry || Entry->empty())
    return false;
  auto Dead = std::make_unique<Instruction>(
      Opcode::Add, Type::I64,
      std::vector<Value *>{M.getConstInt(Type::I64, 1),
                           M.getConstInt(Type::I64, 2)});
  Dead->setName("dead");
  Entry->insert(Entry->size() - 1, std::move(Dead));
  return true;
}

} // namespace

TEST(FeatureCacheIncremental, Inst2vecMatchesAndRecomputesOnlyDirty) {
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://csmith-v0");
  Style.MinFunctions = 6;
  Style.MaxFunctions = 8;
  auto M = datasets::generateProgram(7, Style, "m");
  ASSERT_NE(M, nullptr);
  ASSERT_GE(M->functions().size(), 2u);

  const uint64_t Before = recomputes().value();
  FeatureCache Cache;
  EXPECT_EQ(Cache.inst2vec(*M), inst2vec(*M));
  uint64_t AfterCold = recomputes().value() - Before;
  EXPECT_EQ(AfterCold, M->functions().size());

  // Unchanged module: pure cache hit.
  EXPECT_EQ(Cache.inst2vec(*M), inst2vec(*M));
  EXPECT_EQ(recomputes().value() - Before, AfterCold);

  // Mutate exactly one function: one segment recompute, bit-identical
  // result (the aggregate is spliced in place, not re-concatenated).
  Function *Dirty = M->functions().front().get();
  ASSERT_TRUE(mutateOneFunction(*M, *Dirty));
  Cache.invalidateFunction(Dirty);
  EXPECT_EQ(Cache.inst2vec(*M), inst2vec(*M));
  EXPECT_EQ(recomputes().value() - Before, AfterCold + 1);

  // The last function's segment is the splice tail edge case (its old
  // window ends at the already-shifted vector end).
  Function *Last = M->functions().back().get();
  ASSERT_TRUE(mutateOneFunction(*M, *Last));
  Cache.invalidateFunction(Last);
  EXPECT_EQ(Cache.inst2vec(*M), inst2vec(*M));

  // And two dirty functions at once, with length changes.
  ASSERT_TRUE(mutateOneFunction(*M, *Dirty));
  ASSERT_TRUE(mutateOneFunction(*M, *Last));
  Cache.invalidateFunction(Dirty);
  Cache.invalidateFunction(Last);
  EXPECT_EQ(Cache.inst2vec(*M), inst2vec(*M));
}

TEST(FeatureCacheIncremental, ProgramlMatchesAndRecomputesOnlyDirty) {
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://npb-v0");
  Style.MinFunctions = 6;
  Style.MaxFunctions = 8;
  auto M = datasets::generateProgram(11, Style, "m");
  ASSERT_NE(M, nullptr);
  ASSERT_GE(M->functions().size(), 2u);

  const uint64_t Before = recomputes().value();
  FeatureCache Cache;
  auto expectMatchesReference = [&] {
    ProgramGraph FromCache;
    ASSERT_TRUE(deserializeGraph(Cache.programl(*M), FromCache));
    EXPECT_TRUE(FromCache == buildProgramGraph(*M));
  };
  expectMatchesReference();
  uint64_t AfterCold = recomputes().value() - Before;
  EXPECT_EQ(AfterCold, M->functions().size());

  (void)Cache.programl(*M);
  EXPECT_EQ(recomputes().value() - Before, AfterCold);

  Function *Dirty = M->functions().back().get();
  ASSERT_TRUE(mutateOneFunction(*M, *Dirty));
  Cache.invalidateFunction(Dirty);
  expectMatchesReference();
  EXPECT_EQ(recomputes().value() - Before, AfterCold + 1);

  // One-function edits keep every other function's serialized region
  // byte-identical: each clean fragment's bytes must appear verbatim in
  // the re-assembled encoding (the stability wire deltas rely on).
  const std::string &After = Cache.programl(*M);
  for (const auto &F : M->functions()) {
    if (F.get() == Dirty)
      continue;
    const GraphFragment *Frag = Cache.cachedGraphFragment(F.get());
    ASSERT_NE(Frag, nullptr);
    EXPECT_NE(After.find(Frag->Bytes), std::string::npos)
        << "clean fragment of '" << F->name() << "' was rewritten";
  }
}

TEST(FeatureCacheIncremental, ProgramlSelfHealsOnErasedFunction) {
  auto M = parseModule(R"(module "t"
func @callee(i64 %x) -> i64 {
entry:
  %r = add i64 i64 %x, i64 1
  ret i64 %r
}
func @main(i64 %n) -> i64 {
entry:
  %r = add i64 i64 %n, i64 2
  ret i64 %r
}
)");
  ASSERT_TRUE(M.isOk());
  FeatureCache Cache;
  (void)Cache.programl(**M);
  // Erase the (uncalled) callee without notifying the cache: aggregation
  // must reconcile and still match the reference builder.
  (*M)->eraseFunction((*M)->findFunction("callee"));
  ProgramGraph FromCache;
  ASSERT_TRUE(deserializeGraph(Cache.programl(**M), FromCache));
  EXPECT_TRUE(FromCache == buildProgramGraph(**M));
}

TEST(Rewards, CodeAndBinarySizeShrinkUnderOptimization) {
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://csmith-v0");
  auto M = datasets::generateProgram(17, Style, "m");
  int64_t Code = codeSize(*M);
  int64_t Binary = binarySize(*M);
  EXPECT_GT(Code, 0);
  EXPECT_GT(Binary, Code); // Bytes > instruction count for our targets.
  ASSERT_TRUE(passes::runPass(*M, "mem2reg").isOk());
  EXPECT_LT(codeSize(*M), Code);
  EXPECT_LT(binarySize(*M), Binary);
}

TEST(Rewards, RuntimeIsNoisyButCentered) {
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://csmith-v0");
  auto M = datasets::generateProgram(23, Style, "m");
  Rng Gen(7);
  RuntimeOptions Opts;
  Opts.Interp.Args = {2};
  std::vector<double> Samples;
  for (int I = 0; I < 20; ++I) {
    auto R = measureRuntime(*M, Gen, Opts);
    ASSERT_TRUE(R.isOk());
    Samples.push_back(*R);
  }
  // Nondeterministic (spread > 0) but within noise bounds (~2%).
  double Lo = *std::min_element(Samples.begin(), Samples.end());
  double Hi = *std::max_element(Samples.begin(), Samples.end());
  EXPECT_GT(Hi, Lo);
  EXPECT_LT((Hi - Lo) / Lo, 0.30);
}

TEST(Rewards, ValidateSemanticsDetectsMiscompiles) {
  auto Ref = smallModule();
  auto Ok = Ref->clone();
  EXPECT_TRUE(validateSemantics(*Ref, *Ok).Ok);

  // "Miscompile": change the multiplier constant.
  auto Bad = Ref->clone();
  Function *F = Bad->findFunction("main");
  BasicBlock *A = F->findBlock("a");
  ASSERT_NE(A, nullptr);
  Instruction *Mul = A->front();
  ASSERT_EQ(Mul->opcode(), Opcode::Mul);
  Mul->setOperand(1, Bad->getConstInt(Type::I64, 3));
  InterpreterOptions IOpts;
  IOpts.Args = {5};
  ValidationResult V = validateSemantics(*Ref, *Bad, IOpts);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("divergence"), std::string::npos);
}

TEST(Rewards, ValidateSemanticsDetectsIntroducedTraps) {
  auto Ref = parseModule(R"(module "t"
func @main() -> i64 {
entry:
  ret i64 1
}
)");
  auto Bad = parseModule(R"(module "t"
func @main() -> i64 {
entry:
  %d = sdiv i64 i64 1, i64 0
  ret i64 %d
}
)");
  ASSERT_TRUE(Ref.isOk());
  ASSERT_TRUE(Bad.isOk());
  ValidationResult V = validateSemantics(**Ref, **Bad);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("trapped"), std::string::npos);
}

TEST(Lowering, AssemblyAndObjectEmission) {
  auto M = smallModule();
  LoweredModule L = lowerModule(*M, TargetDescriptor(), /*EmitText=*/true);
  EXPECT_GT(L.TextSizeBytes, 0u);
  EXPECT_EQ(L.DataSizeBytes, 4u * 8u);
  EXPECT_FALSE(L.Assembly.empty());
  EXPECT_NE(L.Assembly.find("main:"), std::string::npos);
  EXPECT_FALSE(L.ObjectBytes.empty());
  // Text size is the sum of per-instruction sizes plus prologue/epilogue:
  // the object byte stream encodes exactly the instruction bytes.
  TargetDescriptor T;
  EXPECT_EQ(L.ObjectBytes.size() + T.FunctionPrologueBytes +
                T.FunctionEpilogueBytes,
            L.TextSizeBytes);
}

TEST(Lowering, TargetDescriptorChangesSizes) {
  auto M = smallModule();
  TargetDescriptor Fat;
  Fat.AluOpBytes = 8;
  Fat.MemOpBytes = 12;
  EXPECT_GT(lowerModule(*M, Fat).TextSizeBytes,
            lowerModule(*M).TextSizeBytes);
}

} // namespace
