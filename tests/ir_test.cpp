//===- tests/ir_test.cpp - IR core unit tests ------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "datasets/CsmithGenerator.h"
#include "datasets/CuratedSuites.h"
#include "datasets/StressGenerator.h"
#include "ir/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

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

TEST(Function, ReplaceAllUsesWith) {
  auto M = buildDiamond();
  Function *F = M->findFunction("main");
  Argument *N = F->arg(0);
  Constant *Seven = M->getConstInt(Type::I64, 7);
  size_t Rewritten = F->replaceAllUsesWith(N, Seven);
  EXPECT_EQ(Rewritten, 3u); // icmp, mul, add.
  EXPECT_FALSE(F->hasUses(N));
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
  EXPECT_TRUE(Entry->predecessors().empty());
  EXPECT_EQ(Merge->predecessors().size(), 2u);
  EXPECT_EQ(Merge->firstNonPhi(), 1u);
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

} // namespace
