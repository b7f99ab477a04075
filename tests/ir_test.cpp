//===- tests/ir_test.cpp - IR core unit tests ------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "datasets/CsmithGenerator.h"
#include "datasets/CuratedSuites.h"
#include "datasets/DatasetRegistry.h"
#include "datasets/StressGenerator.h"
#include "ir/CFG.h"
#include "ir/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/UseTable.h"
#include "ir/Verifier.h"
#include "passes/PassManager.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

using namespace compiler_gym;
using namespace compiler_gym::ir;

namespace {

TEST(Type, NamesRoundTrip) {
  for (Type Ty : {Type::Void, Type::I1, Type::I32, Type::I64, Type::F64,
                  Type::Ptr, Type::Label}) {
    Type Parsed;
    ASSERT_TRUE(typeFromName(typeName(Ty), Parsed));
    EXPECT_EQ(Parsed, Ty);
  }
  Type Out;
  EXPECT_FALSE(typeFromName("i128", Out));
}

TEST(Type, Predicates) {
  EXPECT_TRUE(isIntegerType(Type::I1));
  EXPECT_TRUE(isIntegerType(Type::I64));
  EXPECT_FALSE(isIntegerType(Type::F64));
  EXPECT_TRUE(isFirstClassType(Type::Ptr));
  EXPECT_FALSE(isFirstClassType(Type::Void));
  EXPECT_FALSE(isFirstClassType(Type::Label));
  EXPECT_EQ(integerBitWidth(Type::I32), 32);
}

TEST(Opcode, NamesRoundTrip) {
  for (int I = 0; I < NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    Opcode Parsed;
    ASSERT_TRUE(opcodeFromName(opcodeName(Op), Parsed)) << opcodeName(Op);
    EXPECT_EQ(Parsed, Op);
  }
  Opcode Out;
  EXPECT_FALSE(opcodeFromName("frobnicate", Out));
}

TEST(Module, ConstantsAreUniqued) {
  Module M;
  EXPECT_EQ(M.getConstInt(Type::I64, 42), M.getConstInt(Type::I64, 42));
  EXPECT_NE(M.getConstInt(Type::I64, 42), M.getConstInt(Type::I32, 42));
  EXPECT_NE(M.getConstInt(Type::I64, 42), M.getConstInt(Type::I64, 43));
  EXPECT_EQ(M.getConstFloat(1.5), M.getConstFloat(1.5));
  EXPECT_EQ(M.getTrue()->intValue(), 1);
  EXPECT_EQ(M.getFalse()->intValue(), 0);
}

TEST(Module, I32ConstantsCanonicalizeToWidth) {
  Module M;
  // Value stored truncated: 2^32 + 7 == 7 as i32.
  EXPECT_EQ(M.getConstInt(Type::I32, (1ll << 32) + 7),
            M.getConstInt(Type::I32, 7));
}

TEST(Module, FindAndEraseFunction) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  EXPECT_EQ(M.findFunction("f"), F);
  EXPECT_EQ(M.findFunction("g"), nullptr);
  M.eraseFunction(F);
  EXPECT_EQ(M.findFunction("f"), nullptr);
}

/// Builds: main() { if (n > 3) r = n * 2 else r = n + 1; ret r }.
std::unique_ptr<Module> buildDiamond() {
  auto M = std::make_unique<Module>("diamond");
  Function *F = M->createFunction("main", Type::I64);
  Argument *N = F->addArgument(Type::I64, "n");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Merge = F->createBlock("merge");
  IRBuilder B(Entry);
  Instruction *Cmp = B.createICmp(Pred::GT, N, M->getConstInt(Type::I64, 3));
  B.createCondBr(Cmp, Then, Else);
  B.setInsertPoint(Then);
  Instruction *Mul = B.createMul(N, M->getConstInt(Type::I64, 2));
  B.createBr(Merge);
  B.setInsertPoint(Else);
  Instruction *Add = B.createAdd(N, M->getConstInt(Type::I64, 1));
  B.createBr(Merge);
  B.setInsertPoint(Merge);
  Instruction *Phi = B.createPhi(Type::I64);
  Phi->addIncoming(Mul, Then);
  Phi->addIncoming(Add, Else);
  B.createRet(Phi);
  return M;
}

TEST(IRBuilder, DiamondVerifies) {
  auto M = buildDiamond();
  EXPECT_TRUE(verifyModule(*M).isOk());
  EXPECT_EQ(M->instructionCount(), 8u);
}

TEST(Module, CloneIsDeepAndIdentical) {
  auto M = buildDiamond();
  auto Clone = M->clone();
  EXPECT_EQ(printModule(*M), printModule(*Clone));
  EXPECT_EQ(M->hash(), Clone->hash());
  // Mutating the clone does not affect the original. (Flip a predicate
  // rather than erasing: the icmp still has users, and printing a module
  // with a dangling operand is undefined behaviour — it tripped the
  // Constant type assertions in Debug builds.)
  Clone->findFunction("main")->entry()->front()->setPred(Pred::GE);
  EXPECT_NE(printModule(*M), printModule(*Clone));
}

TEST(Module, HashDetectsAnyChange) {
  auto M = buildDiamond();
  StateHash Before = M->hash();
  Function *F = M->findFunction("main");
  Instruction *Cmp = F->entry()->front();
  Cmp->setPred(Pred::GE);
  EXPECT_NE(M->hash(), Before);
}

TEST(Module, ReparsedModulePrintsAlikeButMayHashApart) {
  // The one intended difference from the printed form: an unnamed value
  // printed under a default name ("t0") and a value named "t0" render
  // alike, but the digest reads the names the IR holds.
  auto M = buildDiamond();
  auto Reparsed = parseModule(printModule(*M));
  ASSERT_TRUE(Reparsed.isOk());
  EXPECT_EQ(printModule(**Reparsed), printModule(*M));
  EXPECT_NE((*Reparsed)->hash(), M->hash());
  // Once every name is explicit, printing and re-parsing keeps the digest.
  auto Again = parseModule(printModule(**Reparsed));
  ASSERT_TRUE(Again.isOk());
  EXPECT_EQ((*Again)->hash(), (*Reparsed)->hash());
}

TEST(Module, HashFollowsOperandsDefinedElsewhere) {
  // Malformed IR: @g reads @f's arguments, which are all named "x". The
  // digest must still tell apart what prints apart ("%x" reused versus
  // "%x.19"), past the point where its local-index table grows.
  auto Build = [](size_t LastArg) {
    auto M = std::make_unique<Module>("m");
    Function *F = M->createFunction("f", Type::I64);
    std::vector<Argument *> Xs;
    for (int I = 0; I < 20; ++I)
      Xs.push_back(F->addArgument(Type::I64, "x"));
    Function *G = M->createFunction("g", Type::I64);
    IRBuilder B(G->createBlock("entry"));
    Value *Sum = Xs[0];
    for (size_t I = 1; I < 19; ++I)
      Sum = B.createAdd(Sum, Xs[I]);
    B.createRet(B.createAdd(Sum, Xs[LastArg]));
    return M;
  };
  auto Distinct = Build(19);
  auto Reused = Build(0);
  EXPECT_NE(printModule(*Distinct), printModule(*Reused));
  EXPECT_NE(Distinct->hash(), Reused->hash());
  EXPECT_EQ(Distinct->hash(), Build(19)->hash());
}

TEST(StateHash, HexRoundTrip) {
  auto M = buildDiamond();
  StateHash H = M->hash();
  StateHash Parsed;
  ASSERT_TRUE(StateHash::fromHex(H.hex(), Parsed));
  EXPECT_EQ(Parsed, H);
  EXPECT_FALSE(StateHash::fromHex("xyz", Parsed));
  EXPECT_FALSE(StateHash::fromHex(std::string(40, 'g'), Parsed));
  M->setName("other");
  EXPECT_NE(M->hash().hex(), H.hex());
}

TEST(UseTable, ReplaceAllUsesWith) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  Argument *N = F->arg(0);
  Constant *Seven = M->getConstInt(Type::I64, 7);
  UseTable Uses(*F);
  size_t Rewritten = Uses.replaceAllUsesWith(N, Seven);
  EXPECT_EQ(Rewritten, 3u); // icmp, mul, add.
  EXPECT_FALSE(Uses.hasUses(N));
  EXPECT_FALSE(UseTable(*F).hasUses(N));
}

TEST(Function, UseCounts) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  auto Counts = F->computeUseCounts();
  EXPECT_EQ(Counts.at(F->arg(0)), 3u);
}

TEST(BasicBlock, PredecessorsAndSuccessors) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  BasicBlock *Entry = F->findBlock("entry");
  BasicBlock *Merge = F->findBlock("merge");
  ASSERT_NE(Entry, nullptr);
  ASSERT_NE(Merge, nullptr);
  EXPECT_EQ(Entry->successors().size(), 2u);
  PredecessorTable Preds(*F);
  EXPECT_TRUE(Preds[Entry].empty());
  EXPECT_EQ(Preds[Merge].size(), 2u);
  EXPECT_EQ(Merge->firstNonPhi(), 1u);
}

TEST(PredecessorTable, PatchesKeepBlockOrder) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  BasicBlock *Entry = F->findBlock("entry");
  BasicBlock *Then = F->findBlock("then");
  BasicBlock *Else = F->findBlock("else");
  BasicBlock *Merge = F->findBlock("merge");
  PredecessorTable Preds(*F);
  EXPECT_EQ(Preds[Merge], (std::vector<BasicBlock *>{Then, Else}));
  EXPECT_EQ(Preds.index(Else), 2u);
  EXPECT_EQ(Preds.block(2), Else);
  Preds.removeEdge(Then, Merge);
  Preds.addEdge(Entry, Merge);
  Preds.addEdge(Else, Merge); // Already listed: no duplicate.
  EXPECT_EQ(Preds[Merge], (std::vector<BasicBlock *>{Entry, Else}));
  BasicBlock *Late = F->createBlock("late");
  EXPECT_EQ(Preds.index(Late), PredecessorTable::npos);
  EXPECT_TRUE(Preds[Late].empty());
}

// -- UseTable ------------------------------------------------------------------

/// Each argument's and instruction's users, found by scanning every operand
/// of \p F: the whole-function scan replace-all-uses made per value before
/// UseTable. Users are in block order, each once per value.
std::unordered_map<const Value *, std::vector<Instruction *>>
scanUsers(const Function &F) {
  std::unordered_map<const Value *, std::vector<Instruction *>> Users;
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      std::vector<const Value *> Ops(I->operands().begin(),
                                     I->operands().end());
      std::sort(Ops.begin(), Ops.end());
      Ops.erase(std::unique(Ops.begin(), Ops.end()), Ops.end());
      for (const Value *Op : Ops)
        if (isa<Instruction>(Op) || isa<Argument>(Op))
          Users[Op].push_back(I.get());
    }
  }
  return Users;
}

/// Checks \p Uses against a scan of \p F for every argument and
/// instruction: in block order if \p Ordered (a table as built), else as
/// sets (a table patched since its build lists later users last).
void expectUsesMatchScan(Function &F, UseTable &Uses, bool Ordered,
                         const std::string &Where) {
  SCOPED_TRACE(Where + " @" + F.name());
  auto Ref = scanUsers(F);
  auto check = [&](const Value *V) {
    std::vector<Instruction *> Got = Uses.users(V);
    std::vector<Instruction *> Want = Ref[V];
    if (!Ordered) {
      std::sort(Got.begin(), Got.end());
      std::sort(Want.begin(), Want.end());
    }
    ASSERT_EQ(Got, Want) << "users of %" << V->name();
  };
  for (size_t A = 0; A < F.numArgs(); ++A) {
    check(F.arg(A));
    if (::testing::Test::HasFatalFailure())
      return;
  }
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      check(I.get());
      if (::testing::Test::HasFatalFailure())
        return;
    }
}

constexpr const char *UseCases = R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %sq = mul i64 i64 %n, i64 %n
  %k = add i64 i64 %n, i64 1
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %inext, %loop ]
  %inext = add i64 i64 %i, i64 %k
  %c = icmp i1 lt i64 %inext, i64 %sq
  condbr i1 %c, label %loop, label %exit
exit:
  %r = add i64 i64 %inext, i64 %sq
  ret i64 %r
}
)";

/// The instruction named \p Name in \p F.
Instruction *inst(const Function &F, const std::string &Name) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->name() == Name)
        return I.get();
  ADD_FAILURE() << "no %" << Name;
  return nullptr;
}

using Insts = std::vector<Instruction *>;

TEST(UseTable, ValueUsedTwiceByOneInstruction) {
  auto M = parseModule(UseCases).takeValue();
  Function &F = *M->findFunction("main");
  Instruction *Sq = inst(F, "sq"), *K = inst(F, "k");
  UseTable Uses(F);
  expectUsesMatchScan(F, Uses, /*Ordered=*/true, "as built");
  EXPECT_EQ(Uses.users(F.arg(0)), (Insts{Sq, K})); // %sq once.
  EXPECT_EQ(Uses.replaceAllUsesWith(F.arg(0), M->getConstInt(Type::I64, 7)),
            3u);
  EXPECT_EQ(Sq->operand(0), Sq->operand(1));
  EXPECT_FALSE(Uses.hasUses(F.arg(0)));
  expectUsesMatchScan(F, Uses, /*Ordered=*/true, "after replacement");
}

TEST(UseTable, LoopPhiUsesValueAcrossBackEdge) {
  auto M = parseModule(UseCases).takeValue();
  Function &F = *M->findFunction("main");
  Instruction *I = inst(F, "i"), *INext = inst(F, "inext");
  UseTable Uses(F);
  // The phi precedes the definition it reads over the back edge.
  EXPECT_EQ(Uses.users(INext), (Insts{I, inst(F, "c"), inst(F, "r")}));
  EXPECT_EQ(Uses.users(I), (Insts{INext}));
  // Replacing the phi rewrites its user, and the phi's own incoming stays.
  EXPECT_EQ(Uses.replaceAllUsesWith(I, inst(F, "k")), 1u);
  EXPECT_EQ(INext->operand(0), inst(F, "k"));
  EXPECT_EQ(I->incomingValue(1), INext);
  expectUsesMatchScan(F, Uses, /*Ordered=*/false, "after replacement");
}

TEST(UseTable, ReplacementOntoValueWithUsers) {
  auto M = parseModule(UseCases).takeValue();
  Function &F = *M->findFunction("main");
  Instruction *Sq = inst(F, "sq"), *K = inst(F, "k"), *I = inst(F, "i"),
              *INext = inst(F, "inext"), *C = inst(F, "c"),
              *R = inst(F, "r");
  UseTable Uses(F);
  ASSERT_EQ(Uses.users(Sq), (Insts{C, R}));
  EXPECT_EQ(Uses.replaceAllUsesWith(K, Sq), 1u);
  EXPECT_EQ(Uses.users(Sq), (Insts{C, R, INext})); // Moved users go last.
  EXPECT_FALSE(Uses.hasUses(K));
  // %c and %r already use %sq: each stays listed once.
  EXPECT_EQ(Uses.replaceAllUsesWith(INext, Sq), 3u);
  EXPECT_EQ(Uses.users(Sq), (Insts{C, R, INext, I}));
  EXPECT_EQ(C->operand(0), Sq);
  EXPECT_EQ(R->operand(0), Sq);
  expectUsesMatchScan(F, Uses, /*Ordered=*/false, "after replacements");
}

TEST(UseTable, ReplacementThenErase) {
  auto M = parseModule(UseCases).takeValue();
  Function &F = *M->findFunction("main");
  Argument *N = F.arg(0);
  Instruction *Sq = inst(F, "sq"), *K = inst(F, "k"),
              *INext = inst(F, "inext");
  UseTable Uses(F);
  EXPECT_EQ(Uses.replaceAllUsesWith(K, N), 1u);
  EXPECT_EQ(Uses.users(N), (Insts{Sq, K, INext}));
  BasicBlock *Entry = F.entry();
  Uses.drop(K);
  Entry->erase(Entry->indexOf(K));
  EXPECT_EQ(Uses.users(N), (Insts{Sq, INext}));
  expectUsesMatchScan(F, Uses, /*Ordered=*/true, "after erase");
}

TEST(UseTable, UserInsertedAfterBuild) {
  auto M = parseModule(UseCases).takeValue();
  Function &F = *M->findFunction("main");
  Argument *N = F.arg(0);
  Instruction *Sq = inst(F, "sq"), *K = inst(F, "k"),
              *INext = inst(F, "inext"), *R = inst(F, "r");
  UseTable Uses(F);
  ASSERT_EQ(Uses.users(K), (Insts{INext}));
  BasicBlock *Exit = R->parent();
  Instruction *Extra = Exit->insert(
      0, std::make_unique<Instruction>(Opcode::Add, Type::I64,
                                       std::vector<Value *>{K, N}));
  Uses.add(Extra);
  EXPECT_EQ(Uses.users(K), (Insts{INext, Extra}));
  EXPECT_EQ(Uses.users(N), (Insts{Sq, K, Extra}));
  EXPECT_EQ(Uses.replaceAllUsesWith(K, Sq), 2u);
  EXPECT_EQ(Extra->operand(0), Sq);
  // One operand rewritten in place moves its user between two lists.
  Uses.setOperand(*R, 0, N);
  EXPECT_EQ(Uses.users(N), (Insts{Sq, K, Extra, R}));
  EXPECT_EQ(Uses.users(INext), (Insts{inst(F, "i"), inst(F, "c")}));
  expectUsesMatchScan(F, Uses, /*Ordered=*/false, "after edits");
}

// -- Printer / parser ---------------------------------------------------------

TEST(Parser, RoundTripsHandWrittenModule) {
  auto M = buildDiamond();
  std::string Text = printModule(*M);
  auto Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  EXPECT_EQ(printModule(**Parsed), Text);
  EXPECT_TRUE(verifyModule(**Parsed).isOk());
}

TEST(Parser, AcceptsForwardFunctionReferences) {
  const char *Text = R"(module "fwd"
func @caller() -> i64 {
entry:
  %r = call i64 func @callee, i64 1
  ret i64 %r
}
func @callee(i64 %x) -> i64 {
entry:
  ret i64 %x
}
)";
  auto Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  EXPECT_TRUE(verifyModule(**Parsed).isOk());
}

TEST(Parser, ReportsLineNumbersOnErrors) {
  auto R = parseModule("module \"x\"\nfunc @f() -> i64 {\nentry:\n  %a = "
                       "bogus i64 i64 1\n}\n");
  ASSERT_FALSE(R.isOk());
  EXPECT_NE(R.status().message().find("line 4"), std::string::npos);
}

TEST(Parser, RejectsMalformedInputs) {
  EXPECT_FALSE(parseModule("garbage top level").isOk());
  EXPECT_FALSE(parseModule("func @f() -> i64 {\nentry:\n  ret i64 %undef\n}")
                   .isOk());
  {
    // A truncated operand list parses (arity is a verifier concern)...
    auto Parsed = parseModule(
        "func @f() -> i64 {\nentry:\n  %a = add i64 i64 1\n  ret i64 "
        "%a\n}");
    ASSERT_TRUE(Parsed.isOk());
    // ...and the verifier rejects it.
    EXPECT_FALSE(verifyModule(**Parsed).isOk());
  }
  EXPECT_FALSE(
      parseModule("func @f() -> i64 {\n  ret i64 0\n}").isOk()); // No label.
  EXPECT_FALSE(parseModule("func @f() -> i64 {\nentry:\n  %a = add i64 i64 "
                           "1, i64 2\n  %a = add i64 i64 1, i64 2\n}")
                   .isOk()); // Duplicate name.
}

TEST(Parser, UnterminatedFunctionFails) {
  EXPECT_FALSE(parseModule("func @f() -> i64 {\nentry:\n  ret i64 0\n").isOk());
}

struct RoundTripCase {
  uint64_t Seed;
  const char *StyleName;
};

class GeneratorRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(GeneratorRoundTrip, PrintParsePrintIsStable) {
  const RoundTripCase &C = GetParam();
  std::unique_ptr<Module> M;
  if (std::string(C.StyleName) == "stress") {
    M = datasets::generateStressProgram(C.Seed, 1, "m");
  } else {
    datasets::ProgramStyle Style = datasets::styleForDataset(C.StyleName);
    M = datasets::generateProgram(C.Seed, Style, "m");
  }
  ASSERT_TRUE(verifyModule(*M).isOk());
  std::string Text = printModule(*M);
  auto Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.isOk()) << Parsed.status().toString();
  EXPECT_EQ(printModule(**Parsed), Text);
  EXPECT_TRUE(verifyModule(**Parsed).isOk());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GeneratorRoundTrip,
    ::testing::Values(
        RoundTripCase{1, "benchmark://csmith-v0"},
        RoundTripCase{2, "benchmark://csmith-v0"},
        RoundTripCase{3, "benchmark://npb-v0"},
        RoundTripCase{4, "benchmark://github-v0"},
        RoundTripCase{5, "benchmark://linux-v0"},
        RoundTripCase{6, "benchmark://blas-v0"},
        RoundTripCase{7, "benchmark://tensorflow-v0"},
        RoundTripCase{8, "benchmark://poj104-v1"},
        RoundTripCase{9, "stress"}, RoundTripCase{10, "stress"},
        RoundTripCase{11, "benchmark://chstone-v0"},
        RoundTripCase{12, "benchmark://clgen-v0"}));

// -- Verifier ------------------------------------------------------------------

TEST(Verifier, CatchesMissingTerminator) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  B.createAlloca(1);
  EXPECT_FALSE(verifyFunction(*F).isOk());
}

TEST(Verifier, CatchesTypeErrors) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  // add with mismatched operand types, built by hand.
  auto Bad = std::make_unique<Instruction>(
      Opcode::Add, Type::I64,
      std::vector<Value *>{M.getConstInt(Type::I64, 1),
                           M.getConstInt(Type::I32, 2)});
  BB->append(std::move(Bad));
  IRBuilder B(BB);
  B.createRet();
  EXPECT_FALSE(verifyFunction(*F).isOk());
}

TEST(Verifier, CatchesUseBeforeDef) {
  Module M;
  Function *F = M.createFunction("f", Type::I64);
  BasicBlock *BB = F->createBlock("entry");
  auto UseFirst = std::make_unique<Instruction>(Opcode::Add, Type::I64);
  Instruction *Use = BB->append(std::move(UseFirst));
  IRBuilder B(BB);
  Instruction *Def = B.createAdd(M.getConstInt(Type::I64, 1),
                                 M.getConstInt(Type::I64, 2));
  Use->operands().push_back(Def); // Use precedes def.
  Use->operands().push_back(Def);
  B.createRet(Use);
  EXPECT_FALSE(verifyFunction(*F).isOk());
}

TEST(Verifier, CatchesPhiPredMismatch) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  BasicBlock *Merge = F->findBlock("merge");
  Instruction *Phi = Merge->front();
  Phi->removeIncoming(0); // Now one incoming for two predecessors.
  EXPECT_FALSE(verifyFunction(*F).isOk());
}

TEST(Verifier, CatchesCallArityMismatch) {
  Module M;
  Function *Callee = M.createFunction("callee", Type::I64);
  Callee->addArgument(Type::I64, "x");
  BasicBlock *CB = Callee->createBlock("entry");
  IRBuilder CBuild(CB);
  CBuild.createRet(M.getConstInt(Type::I64, 0));

  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  auto Call = std::make_unique<Instruction>(
      Opcode::Call, Type::I64,
      std::vector<Value *>{M.getFunctionRef(Callee)}); // Zero args.
  BB->append(std::move(Call));
  IRBuilder B(BB);
  B.createRet();
  // Call-signature checks need module context to resolve the symbolic ref.
  EXPECT_FALSE(verifyFunction(*F, &M).isOk());
}

// -- Dominators ------------------------------------------------------------------

TEST(Dominators, DiamondDominance) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  DominatorTree DT(*F);
  BasicBlock *Entry = F->findBlock("entry");
  BasicBlock *Then = F->findBlock("then");
  BasicBlock *Else = F->findBlock("else");
  BasicBlock *Merge = F->findBlock("merge");
  EXPECT_TRUE(DT.dominates(Entry, Merge));
  EXPECT_TRUE(DT.dominates(Entry, Then));
  EXPECT_FALSE(DT.dominates(Then, Merge));
  EXPECT_FALSE(DT.dominates(Then, Else));
  EXPECT_TRUE(DT.dominates(Merge, Merge));
  EXPECT_EQ(DT.idom(Merge), Entry);
  EXPECT_EQ(DT.idom(Entry), nullptr);
  EXPECT_EQ(DT.reversePostorder().size(), 4u);
  EXPECT_EQ(DT.reversePostorder().front(), Entry);
}

TEST(Dominators, FindsNaturalLoop) {
  // entry -> header; header -> body|exit; body -> header.
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Entry);
  B.createBr(Header);
  B.setInsertPoint(Header);
  Instruction *Cmp = B.createICmp(Pred::LT, M.getConstInt(Type::I64, 0),
                                  M.getConstInt(Type::I64, 1));
  B.createCondBr(Cmp, Body, Exit);
  B.setInsertPoint(Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet();

  DominatorTree DT(*F);
  std::vector<NaturalLoop> Loops = findNaturalLoops(*F, DT);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_EQ(Loops[0].Header, Header);
  EXPECT_EQ(Loops[0].Blocks.size(), 2u);
  EXPECT_TRUE(Loops[0].contains(Body));
  EXPECT_FALSE(Loops[0].contains(Exit));
  ASSERT_EQ(Loops[0].Latches.size(), 1u);
  EXPECT_EQ(Loops[0].Latches[0], Body);
}

TEST(Dominators, UnreachableBlocksHandled) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  BasicBlock *Orphan = F->createBlock("orphan");
  IRBuilder B(Orphan);
  B.createRet(M->getConstInt(Type::I64, 0));
  DominatorTree DT(*F);
  EXPECT_FALSE(DT.isReachable(Orphan));
  EXPECT_TRUE(DT.dominates(F->findBlock("entry"), Orphan)); // Vacuous.
  EXPECT_FALSE(DT.dominates(Orphan, F->findBlock("merge")));
}

// -- Dominators: differential oracle -------------------------------------------

/// Predecessors by scanning every block's successors: the construction the
/// dominator tree used before PredecessorTable.
std::vector<BasicBlock *> scanPredecessors(const Function &F,
                                           const BasicBlock *BB) {
  std::vector<BasicBlock *> Preds;
  for (const auto &P : F.blocks()) {
    std::vector<BasicBlock *> Succs = P->successors();
    if (std::find(Succs.begin(), Succs.end(), BB) != Succs.end())
      Preds.push_back(P.get());
  }
  return Preds;
}

/// The reference dominator tree: Cooper-Harvey-Kennedy over pointer maps
/// and scanned predecessors (memoized per block, which leaves the answers
/// as they were), with an idom-chain walk per dominates() query.
struct ReferenceDomTree {
  std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>> Preds;
  std::unordered_map<const BasicBlock *, BasicBlock *> Idom;
  std::unordered_map<const BasicBlock *, int> PostorderIndex;
  std::vector<BasicBlock *> Rpo;

  explicit ReferenceDomTree(const Function &F) {
    if (F.empty())
      return;
    for (const auto &BB : F.blocks())
      Preds[BB.get()] = scanPredecessors(F, BB.get());
    BasicBlock *Entry = F.entry();
    std::vector<BasicBlock *> Postorder;
    std::unordered_set<BasicBlock *> Visited{Entry};
    std::vector<std::pair<BasicBlock *, size_t>> Stack{{Entry, 0}};
    while (!Stack.empty()) {
      auto &[BB, Cursor] = Stack.back();
      std::vector<BasicBlock *> Succs = BB->successors();
      if (Cursor < Succs.size()) {
        BasicBlock *Next = Succs[Cursor++];
        if (Visited.insert(Next).second)
          Stack.emplace_back(Next, 0);
        continue;
      }
      Postorder.push_back(BB);
      Stack.pop_back();
    }
    for (size_t I = 0; I < Postorder.size(); ++I)
      PostorderIndex[Postorder[I]] = static_cast<int>(I);
    Rpo.assign(Postorder.rbegin(), Postorder.rend());
    auto intersect = [&](BasicBlock *A, BasicBlock *B) {
      while (A != B) {
        while (PostorderIndex.at(A) < PostorderIndex.at(B))
          A = Idom.at(A);
        while (PostorderIndex.at(B) < PostorderIndex.at(A))
          B = Idom.at(B);
      }
      return A;
    };
    Idom[Entry] = Entry;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BasicBlock *BB : Rpo) {
        if (BB == Entry)
          continue;
        BasicBlock *NewIdom = nullptr;
        for (BasicBlock *Pred : Preds.at(BB)) {
          if (!PostorderIndex.count(Pred) || !Idom.count(Pred))
            continue;
          NewIdom = NewIdom ? intersect(NewIdom, Pred) : Pred;
        }
        if (!NewIdom)
          continue;
        auto It = Idom.find(BB);
        if (It == Idom.end() || It->second != NewIdom) {
          Idom[BB] = NewIdom;
          Changed = true;
        }
      }
    }
  }

  bool isReachable(const BasicBlock *BB) const {
    return PostorderIndex.count(BB) != 0;
  }

  /// Every block whose idom chain passes through \p B's: the blocks that
  /// dominate \p B, for reachable \p B.
  std::unordered_set<const BasicBlock *> dominators(const BasicBlock *B) const {
    std::unordered_set<const BasicBlock *> Out{B};
    for (const BasicBlock *Runner = B; Idom.at(Runner) != Runner;
         Runner = Idom.at(Runner))
      Out.insert(Idom.at(Runner));
    return Out;
  }

  bool dominates(const BasicBlock *A, const BasicBlock *B) const {
    if (!isReachable(B))
      return true;
    return isReachable(A) && dominators(B).count(A);
  }

  BasicBlock *idom(const BasicBlock *BB) const {
    auto It = Idom.find(BB);
    return It == Idom.end() || It->second == BB ? nullptr : It->second;
  }
};

/// The reference loop discovery: back edges by idom-chain dominance, latch
/// walks over scanned predecessors, loops sorted by header RPO position.
std::vector<NaturalLoop> referenceLoops(const Function &F,
                                        const ReferenceDomTree &DT) {
  std::unordered_map<BasicBlock *, NaturalLoop> LoopsByHeader;
  for (const auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    if (!DT.isReachable(BB))
      continue;
    for (BasicBlock *Succ : BB->successors()) {
      if (!DT.dominates(Succ, BB))
        continue;
      NaturalLoop &Loop = LoopsByHeader[Succ];
      Loop.Header = Succ;
      Loop.Latches.push_back(BB);
      Loop.Blocks.insert(Succ);
      std::deque<BasicBlock *> Work{BB};
      while (!Work.empty()) {
        BasicBlock *Cur = Work.front();
        Work.pop_front();
        if (!Loop.Blocks.insert(Cur).second)
          continue;
        for (BasicBlock *Pred : DT.Preds.at(Cur))
          if (DT.isReachable(Pred))
            Work.push_back(Pred);
      }
    }
  }
  std::vector<NaturalLoop> Out;
  for (auto &[Header, Loop] : LoopsByHeader)
    Out.push_back(std::move(Loop));
  std::unordered_map<const BasicBlock *, size_t> RpoPos;
  for (size_t I = 0; I < DT.Rpo.size(); ++I)
    RpoPos[DT.Rpo[I]] = I;
  std::sort(Out.begin(), Out.end(),
            [&](const NaturalLoop &A, const NaturalLoop &B) {
              return RpoPos.at(A.Header) < RpoPos.at(B.Header);
            });
  return Out;
}

/// Checks the predecessor table, the dominator tree (RPO, reachability,
/// idoms, dominates() over every block pair) and the natural loops of \p F
/// against the reference construction.
void expectMatchesReference(const Function &F, const DominatorTree &DT,
                            const ReferenceDomTree &Ref,
                            const std::string &Where) {
  SCOPED_TRACE(Where + " @" + F.name());
  PredecessorTable Preds(F);
  for (const auto &BB : F.blocks())
    ASSERT_EQ(Preds[BB.get()], Ref.Preds.at(BB.get())) << BB->name();
  ASSERT_EQ(DT.reversePostorder(), Ref.Rpo);
  for (const auto &B : F.blocks()) {
    ASSERT_EQ(DT.isReachable(B.get()), Ref.isReachable(B.get())) << B->name();
    ASSERT_EQ(DT.idom(B.get()), Ref.idom(B.get())) << B->name();
    if (!Ref.isReachable(B.get())) {
      for (const auto &A : F.blocks())
        ASSERT_TRUE(DT.dominates(A.get(), B.get())) << A->name();
      continue;
    }
    std::unordered_set<const BasicBlock *> Doms = Ref.dominators(B.get());
    for (const auto &A : F.blocks())
      ASSERT_EQ(DT.dominates(A.get(), B.get()), Doms.count(A.get()) != 0)
          << A->name() << " dom " << B->name();
  }
  std::vector<NaturalLoop> Loops = findNaturalLoops(F, DT);
  std::vector<NaturalLoop> RefLoops = referenceLoops(F, Ref);
  ASSERT_EQ(Loops.size(), RefLoops.size());
  for (size_t I = 0; I < Loops.size(); ++I) {
    EXPECT_EQ(Loops[I].Header, RefLoops[I].Header) << "loop " << I;
    EXPECT_EQ(Loops[I].Latches, RefLoops[I].Latches) << "loop " << I;
    EXPECT_EQ(Loops[I].Blocks, RefLoops[I].Blocks) << "loop " << I;
  }
}

/// Checks a fresh tree of every function of \p M against the reference,
/// and, given \p AM, the tree \p AM holds for it too (a stale cached tree
/// means the last pass changed the CFG without invalidating it).
void expectModuleMatchesReference(const Module &M, const std::string &Where,
                                  passes::AnalysisManager *AM = nullptr) {
  for (const auto &F : M.functions()) {
    ReferenceDomTree Ref(*F);
    expectMatchesReference(*F, DominatorTree(*F), Ref, Where);
    if (AM && !::testing::Test::HasFatalFailure())
      expectMatchesReference(*F, AM->domTree(*F), Ref, Where + " (cached)");
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(DominatorOracle, HandBuiltCfgs) {
  // entry -> a | c;  a -> b;  b -> b | c (self-loop);  c -> a | d
  // (a/b/c cycle entered at both a and c: irreducible);  d -> e | e (one
  // condbr target twice);  e -> ret;  dead -> a (unreachable).
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Bb = F->createBlock("b");
  BasicBlock *C = F->createBlock("c");
  BasicBlock *D = F->createBlock("d");
  BasicBlock *E = F->createBlock("e");
  BasicBlock *Dead = F->createBlock("dead");
  IRBuilder B(Entry);
  Value *T = M.getTrue();
  B.createCondBr(T, A, C);
  B.setInsertPoint(A);
  B.createBr(Bb);
  B.setInsertPoint(Bb);
  B.createCondBr(T, Bb, C);
  B.setInsertPoint(C);
  B.createCondBr(T, A, D);
  B.setInsertPoint(D);
  B.createCondBr(T, E, E);
  B.setInsertPoint(E);
  B.createRet();
  B.setInsertPoint(Dead);
  B.createBr(A);

  DominatorTree DT(*F);
  ReferenceDomTree Ref(*F);
  expectMatchesReference(*F, DT, Ref, "hand-built");
  EXPECT_FALSE(DT.isReachable(Dead));
  EXPECT_EQ(DT.idom(A), Entry); // Irreducible: entered at a and at c.
  EXPECT_EQ(DT.idom(C), Entry);
  EXPECT_EQ(DT.idom(E), D);
  PredecessorTable Preds(*F);
  EXPECT_EQ(Preds[E], std::vector<BasicBlock *>{D});
  EXPECT_EQ(Preds[A], (std::vector<BasicBlock *>{Entry, C, Dead}));
  std::vector<NaturalLoop> Loops = findNaturalLoops(*F, DT);
  ASSERT_EQ(Loops.size(), 1u); // Only the self-loop has a dominating header.
  EXPECT_EQ(Loops[0].Header, Bb);

  // A block created after both trees were built is unknown to each, and
  // both answer for it alike (unreachable: dominates nothing, dominated by
  // everything).
  BasicBlock *Late = F->createBlock("late");
  B.setInsertPoint(Late);
  B.createBr(E);
  for (const auto &X : F->blocks()) {
    EXPECT_EQ(DT.dominates(X.get(), Late), Ref.dominates(X.get(), Late));
    EXPECT_EQ(DT.dominates(Late, X.get()), Ref.dominates(Late, X.get()));
  }
  EXPECT_FALSE(DT.isReachable(Late));
  EXPECT_EQ(DT.idom(Late), nullptr);
  EXPECT_EQ(DT.reversePostorder(), Ref.Rpo);
}

/// The oracle corpus: every cbench-v1 and chstone-v0 program, and
/// programs 0-15 of csmith-v0, llvm-stress-v0 and poj104-v1.
std::vector<std::string> oracleCorpus() {
  std::vector<std::string> Uris;
  for (const char *Curated : {"benchmark://cbench-v1", "benchmark://chstone-v0"}) {
    const datasets::Dataset *D =
        datasets::DatasetRegistry::instance().dataset(Curated);
    EXPECT_NE(D, nullptr) << Curated;
    if (!D)
      continue;
    for (const std::string &Name : D->benchmarkNames(D->size()))
      Uris.push_back(std::string(Curated) + "/" + Name);
  }
  for (const char *Generated : {"benchmark://csmith-v0",
                                "benchmark://llvm-stress-v0",
                                "benchmark://poj104-v1"})
    for (int I = 0; I < 16; ++I)
      Uris.push_back(std::string(Generated) + "/" + std::to_string(I));
  return Uris;
}

/// Parses \p Uri.
std::unique_ptr<Module> parseBenchmark(const std::string &Uri) {
  auto B = datasets::DatasetRegistry::instance().resolve(Uri);
  EXPECT_TRUE(B.isOk()) << Uri;
  if (!B.isOk())
    return nullptr;
  auto Parsed = parseModule(B->IrText);
  EXPECT_TRUE(Parsed.isOk()) << Uri;
  return Parsed.isOk() ? Parsed.takeValue() : nullptr;
}

TEST(DominatorOracle, CorpusAsParsedAndAfterRandomActions) {
  const std::vector<std::string> Uris = oracleCorpus();
  const std::vector<std::string> &Actions =
      passes::PassRegistry::instance().defaultActionNames();
  constexpr int EpisodeLength = 6;
  Rng Gen(0xD0D0);
  for (const std::string &Uri : Uris) {
    std::unique_ptr<Module> M = parseBenchmark(Uri);
    ASSERT_NE(M, nullptr) << Uri;
    expectModuleMatchesReference(*M, Uri + " as parsed");
    if (HasFatalFailure())
      return;
    passes::PassManager PM(*M);
    PM.setVerifyPreservation(false);
    // Every step starts with a cached tree per function, so each step
    // checks that its pass drops the trees of the functions whose CFG it
    // changed; the episode ends with a block-merge to be sure one runs.
    for (int Step = 0; Step <= EpisodeLength; ++Step) {
      const std::string &Action = Step < EpisodeLength
                                      ? Actions[Gen.bounded(Actions.size())]
                                      : std::string("block-merge");
      for (const auto &F : M->functions())
        (void)PM.analysisManager().domTree(*F);
      ASSERT_TRUE(PM.run(Action).isOk()) << Uri << " " << Action;
      expectModuleMatchesReference(*M, Uri + " after " + Action,
                                   &PM.analysisManager());
      if (HasFatalFailure())
        return;
    }
  }
}

TEST(UseTableOracle, CorpusAsParsedAndAfterRandomActions) {
  const std::vector<std::string> &Actions =
      passes::PassRegistry::instance().defaultActionNames();
  constexpr int EpisodeLength = 6;
  Rng Gen(0x05E5);
  auto expectModule = [](Module &M, const std::string &Where) {
    for (const auto &F : M.functions()) {
      UseTable Uses(*F);
      expectUsesMatchScan(*F, Uses, /*Ordered=*/true, Where);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  };
  for (const std::string &Uri : oracleCorpus()) {
    std::unique_ptr<Module> M = parseBenchmark(Uri);
    ASSERT_NE(M, nullptr) << Uri;
    expectModule(*M, Uri + " as parsed");
    if (HasFatalFailure())
      return;
    passes::PassManager PM(*M);
    PM.setVerifyPreservation(false);
    for (int Step = 0; Step < EpisodeLength; ++Step) {
      const std::string &Action = Actions[Gen.bounded(Actions.size())];
      ASSERT_TRUE(PM.run(Action).isOk()) << Uri << " " << Action;
      expectModule(*M, Uri + " after " + Action);
      if (HasFatalFailure())
        return;
    }
  }
}

} // namespace
