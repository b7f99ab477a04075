//===- tests/passes_test.cpp - Optimization pass tests ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// Per-pass behavioural tests plus the property suite: any random pass
// pipeline must keep modules verifier-clean and semantics-preserving
// (differential testing against the interpreter, §III-B4).

#include "analysis/Rewards.h"
#include "datasets/CsmithGenerator.h"
#include "datasets/CuratedSuites.h"
#include "datasets/DatasetRegistry.h"
#include "ir/Dominators.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "passes/PassManager.h"
#include "passes/PassRegistry.h"
#include "passes/Pipelines.h"

#include <gtest/gtest.h>

#include <set>

using namespace compiler_gym;
using namespace compiler_gym::ir;
using namespace compiler_gym::passes;

namespace {

std::unique_ptr<Module> parse(const std::string &Text) {
  auto M = parseModule(Text);
  EXPECT_TRUE(M.isOk()) << M.status().toString();
  return M.isOk() ? M.takeValue() : nullptr;
}

bool run(Module &M, const std::string &Pass) {
  auto Changed = runPass(M, Pass);
  EXPECT_TRUE(Changed.isOk()) << Changed.status().toString();
  EXPECT_TRUE(verifyModule(M).isOk())
      << "verifier failure after " << Pass << ":\n"
      << printModule(M);
  return Changed.isOk() && *Changed;
}

TEST(PassRegistry, ContainsCorePasses) {
  const PassRegistry &Reg = PassRegistry::instance();
  for (const char *Name :
       {"dce", "adce", "mem2reg", "gvn", "early-cse", "sccp", "instcombine",
        "simplifycfg", "licm", "loop-simplify", "loop-unroll<8>",
        "inline<100>", "reg2mem", "mergereturn", "jump-threading"})
    EXPECT_TRUE(Reg.contains(Name)) << Name;
  EXPECT_FALSE(Reg.contains("not-a-pass"));
  EXPECT_EQ(Reg.create("not-a-pass"), nullptr);
}

TEST(PassRegistry, GvnSinkIsQuarantined) {
  const PassRegistry &Reg = PassRegistry::instance();
  EXPECT_TRUE(Reg.contains("gvn-sink"));
  const auto &Actions = Reg.defaultActionNames();
  EXPECT_EQ(std::find(Actions.begin(), Actions.end(), "gvn-sink"),
            Actions.end());
  auto Pass = Reg.create("gvn-sink");
  ASSERT_NE(Pass, nullptr);
  EXPECT_FALSE(Pass->isDeterministic());
}

TEST(PassRegistry, ActionSpaceIsSortedAndStable) {
  const auto &Actions = PassRegistry::instance().defaultActionNames();
  EXPECT_TRUE(std::is_sorted(Actions.begin(), Actions.end()));
  EXPECT_GE(Actions.size(), 50u);
}

TEST(Passes, UnknownPassIsNotFound) {
  Module M;
  auto R = runPass(M, "nope");
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::NotFound);
}

TEST(Passes, ConstFoldFoldsChains) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  %a = add i64 i64 2, i64 3
  %b = mul i64 i64 %a, i64 4
  %c = sub i64 i64 %b, i64 20
  ret i64 %c
}
)");
  EXPECT_TRUE(run(*M, "constfold"));
  EXPECT_EQ(M->instructionCount(), 1u); // Just "ret i64 0".
}

TEST(Passes, ConstFoldPreservesTraps) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  %a = sdiv i64 i64 1, i64 0
  ret i64 %a
}
)");
  EXPECT_FALSE(run(*M, "constfold")); // Must not fold the trapping div.
  EXPECT_EQ(M->instructionCount(), 2u);
}

TEST(Passes, DceRemovesUnusedPureCode) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  %dead1 = add i64 i64 1, i64 2
  %dead2 = mul i64 i64 %dead1, i64 3
  store i64 7, ptr @g
  ret i64 0
}
global @g = words 1
)");
  EXPECT_TRUE(run(*M, "dce"));
  EXPECT_EQ(M->instructionCount(), 2u); // Store + ret survive.
}

TEST(Passes, AdceRemovesDeadPhiCycles) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  br label %loop
loop:
  %x = phi i64 [ 0, %entry ], [ %y, %loop ]
  %y = add i64 i64 %x, i64 1
  %c = icmp i1 lt i64 %y, i64 10
  condbr i1 %c, label %loop, label %exit
exit:
  ret i64 42
}
)");
  // %x/%y feed only each other and the (live) condition... make them dead:
  // the condition uses %y, so they are live. Instead check simple dce does
  // NOT remove them but adce keeps verifying.
  EXPECT_FALSE(run(*M, "dce"));
  size_t Before = M->instructionCount();
  run(*M, "adce");
  EXPECT_EQ(M->instructionCount(), Before); // All live here.
}

TEST(Passes, Mem2RegPromotesScalarSlots) {
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %slot = alloca ptr words 1
  store i64 %n, ptr %slot
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %then, label %done
then:
  %v = load i64, ptr %slot
  %v2 = mul i64 i64 %v, i64 2
  store i64 %v2, ptr %slot
  br label %done
done:
  %out = load i64, ptr %slot
  ret i64 %out
}
)");
  EXPECT_TRUE(run(*M, "mem2reg"));
  // No loads/stores/allocas remain; a phi appears in %done.
  size_t Memops = 0, Phis = 0;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        if (I.opcode() == Opcode::Load || I.opcode() == Opcode::Store ||
            I.opcode() == Opcode::Alloca)
          ++Memops;
        if (I.opcode() == Opcode::Phi)
          ++Phis;
      });
  EXPECT_EQ(Memops, 0u);
  EXPECT_EQ(Phis, 1u);
}

TEST(Passes, Mem2RegSkipsEscapedSlots) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  %slot = alloca ptr words 1
  %escaped = ptrtoint i64 ptr %slot
  store i64 1, ptr %slot
  %v = load i64, ptr %slot
  %r = add i64 i64 %v, i64 %escaped
  ret i64 %r
}
)");
  run(*M, "mem2reg");
  bool HasAlloca = false;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        HasAlloca |= I.opcode() == Opcode::Alloca;
      });
  EXPECT_TRUE(HasAlloca); // Escaped: must not be promoted.
}

/// Runs mem2reg on a module whose @main takes one i64, and checks the
/// printed @main against \p Expected and @main's result for each of \p Args
/// against \p Results, before and after the pass.
void expectMem2Reg(const std::string &Text, const std::string &Expected,
                   const std::vector<int64_t> &Args,
                   const std::vector<int64_t> &Results) {
  auto M = parse(Text);
  ASSERT_NE(M, nullptr);
  auto results = [&] {
    std::vector<int64_t> Out;
    for (int64_t N : Args) {
      ir::InterpreterOptions IOpts;
      IOpts.Args = {N};
      auto R = interpret(*M, IOpts);
      EXPECT_TRUE(R.isOk() && R->Completed) << "n=" << N;
      Out.push_back(R.isOk() ? R->ReturnInt : -1);
    }
    return Out;
  };
  EXPECT_EQ(results(), Results) << "before mem2reg";
  EXPECT_TRUE(run(*M, "mem2reg"));
  EXPECT_EQ(printFunction(*M->findFunction("main")), Expected);
  EXPECT_EQ(results(), Results) << "after mem2reg";
}

TEST(Mem2Reg, InterleavedSlotsInOneBlock) {
  expectMem2Reg(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  %b = alloca ptr words 1
  store i64 %n, ptr %a
  store i64 3, ptr %b
  %x = load i64, ptr %a
  %y = load i64, ptr %b
  store i64 %y, ptr %a
  %s = add i64 i64 %x, i64 %y
  store i64 %s, ptr %b
  %p = load i64, ptr %a
  %q = load i64, ptr %b
  %r = mul i64 i64 %p, i64 %q
  ret i64 %r
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  %s = add i64 i64 %n, i64 3
  %r = mul i64 i64 3, i64 %s
  ret i64 %r
}
)",
                {0, 4}, {9, 21});
}

TEST(Mem2Reg, StoredValueIsAPromotedLoad) {
  // %a takes a load of the later slot %b, and %b a load of the earlier
  // slot %a, so each replacement chains through the other slot's.
  expectMem2Reg(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  %b = alloca ptr words 1
  store i64 %n, ptr %b
  %v = load i64, ptr %b
  store i64 %v, ptr %a
  %c = icmp i1 gt i64 %n, i64 5
  condbr i1 %c, label %big, label %join
big:
  %u = load i64, ptr %a
  %u2 = add i64 i64 %u, i64 1
  store i64 %u2, ptr %a
  %t = load i64, ptr %a
  store i64 %t, ptr %b
  br label %join
join:
  %x = load i64, ptr %a
  %y = load i64, ptr %b
  %r = mul i64 i64 %x, i64 %y
  ret i64 %r
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  %c = icmp i1 gt i64 %n, i64 5
  condbr i1 %c, label %big, label %join
big:
  %u2 = add i64 i64 %n, i64 1
  br label %join
join:
  %t0 = phi i64 [ %n, %entry ], [ %u2, %big ]
  %t1 = phi i64 [ %n, %entry ], [ %u2, %big ]
  %r = mul i64 i64 %t1, i64 %t0
  ret i64 %r
}
)",
                {3, 7}, {9, 64});
}

TEST(Mem2Reg, ReadBeforeWriteYieldsZero) {
  expectMem2Reg(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  %f = alloca ptr words 1
  %v = load i64, ptr %a
  %g = load f64, ptr %f
  %gi = fptosi i64 f64 %g
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %set, label %done
set:
  store i64 %n, ptr %a
  br label %done
done:
  %w = load i64, ptr %a
  %vw = add i64 i64 %v, i64 %w
  %r = add i64 i64 %vw, i64 %gi
  ret i64 %r
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  %gi = fptosi i64 f64 0.0
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %set, label %done
set:
  br label %done
done:
  %t0 = phi i64 [ 0, %entry ], [ %n, %set ]
  %vw = add i64 i64 0, i64 %t0
  %r = add i64 i64 %vw, i64 %gi
  ret i64 %r
}
)",
                {-2, 5}, {0, 5});
}

TEST(Mem2Reg, LoopHeaderPhisForThreeSlots) {
  // The header gets one phi per slot, the last slot's first.
  expectMem2Reg(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %i = alloca ptr words 1
  %s = alloca ptr words 1
  %p = alloca ptr words 1
  store i64 0, ptr %i
  store i64 0, ptr %s
  store i64 1, ptr %p
  br label %loop
loop:
  %iv = load i64, ptr %i
  %sv = load i64, ptr %s
  %pv = load i64, ptr %p
  %s2 = add i64 i64 %sv, i64 %iv
  store i64 %s2, ptr %s
  %p2 = mul i64 i64 %pv, i64 2
  store i64 %p2, ptr %p
  %i2 = add i64 i64 %iv, i64 1
  store i64 %i2, ptr %i
  %c = icmp i1 lt i64 %i2, i64 %n
  condbr i1 %c, label %loop, label %exit
exit:
  %sf = load i64, ptr %s
  %pf = load i64, ptr %p
  %r = add i64 i64 %sf, i64 %pf
  ret i64 %r
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  br label %loop
loop:
  %t0 = phi i64 [ 1, %entry ], [ %p2, %loop ]
  %t1 = phi i64 [ 0, %entry ], [ %s2, %loop ]
  %t2 = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %s2 = add i64 i64 %t1, i64 %t2
  %p2 = mul i64 i64 %t0, i64 2
  %i2 = add i64 i64 %t2, i64 1
  %c = icmp i1 lt i64 %i2, i64 %n
  condbr i1 %c, label %loop, label %exit
exit:
  %r = add i64 i64 %s2, i64 %p2
  ret i64 %r
}
)",
                {1, 4}, {2, 22});
}

TEST(Mem2Reg, StoreOnlySlotIsDropped) {
  expectMem2Reg(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  %dead = alloca ptr words 1
  store i64 %n, ptr %a
  store i64 5, ptr %dead
  %v = load i64, ptr %a
  store i64 %v, ptr %dead
  ret i64 %v
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  ret i64 %n
}
)",
                {7}, {7});
}

TEST(Mem2Reg, EscapingSlotsStayInMemory) {
  // %a escapes as a stored value and %big spans two words; only %b is
  // promoted.
  expectMem2Reg(R"(module "t"
global @g = words 1
func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  %b = alloca ptr words 1
  %big = alloca ptr words 2
  store i64 %n, ptr %a
  store ptr %a, ptr @g
  %pa = load ptr, ptr @g
  %v = load i64, ptr %pa
  store i64 %v, ptr %b
  %bv = load i64, ptr %b
  store i64 %bv, ptr %big
  %w = load i64, ptr %big
  %r = add i64 i64 %bv, i64 %w
  ret i64 %r
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  %big = alloca ptr words 2
  store i64 %n, ptr %a
  store ptr %a, ptr @g
  %pa = load ptr ptr @g
  %v = load i64 ptr %pa
  store i64 %v, ptr %big
  %w = load i64 ptr %big
  %r = add i64 i64 %v, i64 %w
  ret i64 %r
}
)",
                {6}, {12});
}

TEST(Mem2Reg, PointerSlotIsPromoted) {
  // A slot written before every read needs no zero constant, which
  // getConstInt() could not make for a pointer.
  expectMem2Reg(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  %b = alloca ptr words 1
  store i64 %n, ptr %a
  store ptr %a, ptr %b
  %pa = load ptr, ptr %b
  %v = load i64, ptr %pa
  ret i64 %v
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  store i64 %n, ptr %a
  %v = load i64 ptr %a
  ret i64 %v
}
)",
                {5}, {5});
}

TEST(Mem2Reg, CondBrNamingOneBlockTwice) {
  // The entry reaches %loop over one edge, so its phi has one entry
  // incoming.
  expectMem2Reg(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = alloca ptr words 1
  store i64 %n, ptr %a
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %loop, label %loop
loop:
  %v = load i64, ptr %a
  %v2 = add i64 i64 %v, i64 1
  store i64 %v2, ptr %a
  %c2 = icmp i1 lt i64 %v2, i64 10
  condbr i1 %c2, label %loop, label %exit
exit:
  %r = load i64, ptr %a
  ret i64 %r
}
)",
                R"(func @main(i64 %n) -> i64 {
entry:
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %loop, label %loop
loop:
  %t0 = phi i64 [ %n, %entry ], [ %v2, %loop ]
  %v2 = add i64 i64 %t0, i64 1
  %c2 = icmp i1 lt i64 %v2, i64 10
  condbr i1 %c2, label %loop, label %exit
exit:
  ret i64 %v2
}
)",
                {3, 12}, {10, 13});
}

TEST(Passes, SccpFoldsConstantBranches) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  %c = icmp i1 gt i64 10, i64 3
  condbr i1 %c, label %then, label %else
then:
  ret i64 1
else:
  ret i64 2
}
)");
  EXPECT_TRUE(run(*M, "sccp"));
  EXPECT_EQ(M->functions().front()->numBlocks(), 2u); // else removed.
}

TEST(Passes, SimplifyCfgMergesChains) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  br label %a
a:
  %x = add i64 i64 1, i64 2
  br label %b
b:
  ret i64 %x
}
)");
  EXPECT_TRUE(run(*M, "simplifycfg"));
  EXPECT_EQ(M->functions().front()->numBlocks(), 1u);
}

TEST(Passes, UnreachableElim) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  ret i64 0
orphan:
  ret i64 1
}
)");
  EXPECT_TRUE(run(*M, "unreachable-elim"));
  EXPECT_EQ(M->functions().front()->numBlocks(), 1u);
}

TEST(Passes, CseLocalDeduplicates) {
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = add i64 i64 %n, i64 1
  %b = add i64 i64 %n, i64 1
  %r = mul i64 i64 %a, i64 %b
  ret i64 %r
}
)");
  EXPECT_TRUE(run(*M, "cse-local"));
  EXPECT_EQ(M->instructionCount(), 3u);
}

TEST(Passes, CseRespectsCommutativity) {
  auto M = parse(R"(module "t"
func @main(i64 %n, i64 %m) -> i64 {
entry:
  %a = add i64 i64 %n, i64 %m
  %b = add i64 i64 %m, i64 %n
  %r = mul i64 i64 %a, i64 %b
  ret i64 %r
}
)");
  EXPECT_TRUE(run(*M, "cse-local"));
  EXPECT_EQ(M->instructionCount(), 3u);
}

TEST(Passes, GvnWorksAcrossBlocks) {
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = add i64 i64 %n, i64 5
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %then, label %done
then:
  %b = add i64 i64 %n, i64 5
  store i64 %b, ptr @g
  br label %done
done:
  ret i64 %a
}
global @g = words 1
)");
  EXPECT_TRUE(run(*M, "gvn"));
  size_t Adds = 0;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        Adds += I.opcode() == Opcode::Add;
      });
  EXPECT_EQ(Adds, 1u);
}

TEST(Passes, GvnDoesNotMergeAcrossSiblingBlocks) {
  // Identical expressions in sibling branches must NOT merge (neither
  // dominates the other).
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %a, label %b
a:
  %x = add i64 i64 %n, i64 7
  ret i64 %x
b:
  %y = add i64 i64 %n, i64 7
  ret i64 %y
}
)");
  run(*M, "gvn");
  size_t Adds = 0;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        Adds += I.opcode() == Opcode::Add;
      });
  EXPECT_EQ(Adds, 2u);
}

TEST(Passes, StoreForwardAndDse) {
  auto M = parse(R"(module "t"
global @g = words 2
func @main() -> i64 {
entry:
  store i64 11, ptr @g
  %v = load i64, ptr @g
  ret i64 %v
}
)");
  EXPECT_TRUE(run(*M, "store-forward"));
  size_t Loads = 0;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        Loads += I.opcode() == Opcode::Load;
      });
  EXPECT_EQ(Loads, 0u);
}

TEST(Passes, DseRemovesOverwrittenStores) {
  auto M = parse(R"(module "t"
global @g = words 2
func @main() -> i64 {
entry:
  store i64 1, ptr @g
  store i64 2, ptr @g
  ret i64 0
}
)");
  EXPECT_TRUE(run(*M, "dse-local"));
  EXPECT_EQ(M->instructionCount(), 2u);
}

TEST(Passes, DseKeepsStoresBeforeLoads) {
  auto M = parse(R"(module "t"
global @g = words 2
func @main() -> i64 {
entry:
  store i64 1, ptr @g
  %v = load i64, ptr @g
  store i64 2, ptr @g
  ret i64 %v
}
)");
  EXPECT_FALSE(run(*M, "dse-local"));
  EXPECT_EQ(M->instructionCount(), 4u);
}

TEST(Passes, StrengthReduceMulToShift) {
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %a = mul i64 i64 %n, i64 8
  ret i64 %a
}
)");
  EXPECT_TRUE(run(*M, "strength-reduce"));
  EXPECT_EQ(M->findFunction("main")->entry()->front()->opcode(),
            Opcode::Shl);
}

TEST(Passes, InlinerRespectsThreshold) {
  const char *Text = R"(module "t"
func @small(i64 %x) -> i64 {
entry:
  %r = add i64 i64 %x, i64 1
  ret i64 %r
}
func @main() -> i64 {
entry:
  %r = call i64 func @small, i64 41
  ret i64 %r
}
)";
  {
    auto M = parse(Text);
    EXPECT_TRUE(run(*M, "inline<100>"));
    size_t Calls = 0;
    M->findFunction("main")->forEachInstruction(
        [&](BasicBlock &, Instruction &I) {
          Calls += I.opcode() == Opcode::Call;
        });
    EXPECT_EQ(Calls, 0u);
  }
  {
    auto M = parse(Text);
    // Threshold below callee size (2 instructions is fine, use a 1-inst
    // threshold by constructing a tiny limit): inline<10> still inlines a
    // 2-instruction callee, so verify no-inline via noinline attribute.
    M->findFunction("small")->setNoInline(true);
    EXPECT_FALSE(run(*M, "inline<100>"));
  }
}

TEST(Passes, InlinerSkipsRecursion) {
  auto M = parse(R"(module "t"
func @rec(i64 %n) -> i64 {
entry:
  %c = icmp i1 le i64 %n, i64 0
  condbr i1 %c, label %base, label %again
base:
  ret i64 0
again:
  %d = sub i64 i64 %n, i64 1
  %r = call i64 func @rec, i64 %d
  ret i64 %r
}
func @main() -> i64 {
entry:
  %r = call i64 func @rec, i64 3
  ret i64 %r
}
)");
  EXPECT_FALSE(run(*M, "inline<100>"));
}

TEST(Passes, LoopUnrollFullyUnrollsCountedLoop) {
  // Returning the body's %accnext reads the sum after the last iteration;
  // returning the header phi %acc reads its value in the last iteration,
  // one addend short.
  const std::pair<const char *, int64_t> Cases[] = {
      {"%accnext", 0 + 1 + 2 + 3}, {"%acc", 0 + 1 + 2}};
  for (const auto &[Ret, Sum] : Cases) {
    SCOPED_TRACE(Ret);
    auto M = parse(std::string(R"(module "t"
global @g = words 8
func @main() -> i64 {
entry:
  br label %body
body:
  %i = phi i64 [ 0, %entry ], [ %inext, %body ]
  %acc = phi i64 [ 0, %entry ], [ %accnext, %body ]
  %accnext = add i64 i64 %acc, i64 %i
  %inext = add i64 i64 %i, i64 1
  %c = icmp i1 lt i64 %inext, i64 4
  condbr i1 %c, label %body, label %exit
exit:
  ret i64 )") + Ret + "\n}\n");
    ir::InterpreterOptions IOpts;
    auto Before = interpret(*M, IOpts);
    ASSERT_TRUE(Before.isOk());
    EXPECT_TRUE(run(*M, "loop-unroll<8>"));
    auto After = interpret(*M, IOpts);
    ASSERT_TRUE(After.isOk());
    EXPECT_EQ(Before->ReturnInt, After->ReturnInt);
    EXPECT_EQ(After->ReturnInt, Sum);
    // No backedge remains.
    ir::DominatorTree DT(*M->findFunction("main"));
    EXPECT_TRUE(ir::findNaturalLoops(*M->findFunction("main"), DT).empty());
  }
}

TEST(Passes, LoopUnrollKeepsCsmithProgramSemantics) {
  // A random-action episode on this program, minimized to six passes: the
  // unrolled header phi fed a use after the loop one iteration late.
  auto Bench =
      datasets::DatasetRegistry::instance().resolve("benchmark://csmith-v0/5");
  ASSERT_TRUE(Bench.isOk()) << Bench.status().toString();
  ASSERT_TRUE(Bench->Runnable);
  auto Reference = parse(Bench->IrText);
  ASSERT_NE(Reference, nullptr);
  auto M = Reference->clone();
  PassManager PM(*M);
  for (const char *Pass : {"mem2reg", "instcombine", "simplifycfg",
                           "instcombine", "inline<300>", "loop-unroll<32>"})
    ASSERT_TRUE(PM.run(Pass).isOk()) << Pass;
  ASSERT_TRUE(verifyModule(*M).isOk());
  ir::InterpreterOptions IOpts;
  IOpts.Args = Bench->Inputs;
  analysis::ValidationResult V =
      analysis::validateSemantics(*Reference, *M, IOpts);
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST(Passes, LoopUnrollRespectsTripLimit) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  br label %body
body:
  %i = phi i64 [ 0, %entry ], [ %inext, %body ]
  %inext = add i64 i64 %i, i64 1
  %c = icmp i1 lt i64 %inext, i64 100
  condbr i1 %c, label %body, label %exit
exit:
  ret i64 %inext
}
)");
  EXPECT_FALSE(run(*M, "loop-unroll<8>")); // 100 > 8: refuse.
  EXPECT_TRUE(run(*M, "loop-unroll<128>"));
}

TEST(Passes, LoopSimplifyEnablesLicm) {
  // Loop without a preheader: entry conditionally enters the loop from
  // two places; licm alone must do nothing, loop-simplify then licm hoists.
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %c0 = icmp i1 gt i64 %n, i64 0
  condbr i1 %c0, label %body, label %pre2
pre2:
  br label %body
body:
  %i = phi i64 [ 0, %entry ], [ 1, %pre2 ], [ %inext, %body ]
  %inv = mul i64 i64 %n, i64 7
  %inext = add i64 i64 %i, i64 %inv
  %c = icmp i1 lt i64 %inext, i64 1000
  condbr i1 %c, label %body, label %exit
exit:
  ret i64 %inext
}
)");
  EXPECT_FALSE(run(*M, "licm")); // No preheader: ordering dependency.
  EXPECT_TRUE(run(*M, "loop-simplify"));
  EXPECT_TRUE(run(*M, "licm"));
  // The invariant mul must now be outside the loop body.
  BasicBlock *Body = M->findFunction("main")->findBlock("body");
  ASSERT_NE(Body, nullptr);
  bool MulInBody = false;
  for (const auto &I : Body->instructions())
    MulInBody |= I->opcode() == Opcode::Mul;
  EXPECT_FALSE(MulInBody);
}

TEST(Passes, LicmIsDeterministic) {
  // licm must hoist in an order fixed by the IR, not by where the loop's
  // blocks landed on the heap. Re-parse each program twelve times, with
  // allocations of varied sizes made and partly freed between runs so the
  // blocks move, and require one printed module per program and pass.
  std::vector<std::string> Uris;
  for (const char *Name : {"crc32", "qsort", "sha", "bitcount"})
    Uris.push_back(std::string("benchmark://cbench-v1/") + Name);
  for (int Seed = 0; Seed < 16; ++Seed)
    Uris.push_back("benchmark://csmith-v0/" + std::to_string(Seed));

  std::vector<std::unique_ptr<char[]>> Churn;
  for (const std::string &Uri : Uris) {
    auto B = datasets::DatasetRegistry::instance().resolve(Uri);
    ASSERT_TRUE(B.isOk()) << Uri;
    for (const char *Licm : {"licm", "licm-promote"}) {
      std::set<std::string> Printed;
      for (int Run = 0; Run < 12; ++Run) {
        std::vector<std::unique_ptr<char[]>> Transient;
        for (size_t K = 0; K < 64; ++K) {
          size_t Bytes = 16 + (Run * 64 + K) * 40 % 480;
          auto &Dst = K % 2 ? Churn : Transient;
          Dst.push_back(std::make_unique<char[]>(Bytes));
        }
        auto M = parse(B->IrText);
        ASSERT_NE(M, nullptr);
        for (const char *Pass : {"mem2reg", "loop-simplify", Licm})
          ASSERT_TRUE(runPass(*M, Pass).isOk()) << Uri << " " << Pass;
        Printed.insert(printModule(*M));
      }
      EXPECT_EQ(Printed.size(), 1u) << Uri << " " << Licm;
    }
  }
}

TEST(Passes, LoopDeleteRemovesDeadLoops) {
  auto M = parse(R"(module "t"
func @main() -> i64 {
entry:
  br label %pre
pre:
  br label %body
body:
  %i = phi i64 [ 0, %pre ], [ %inext, %body ]
  %inext = add i64 i64 %i, i64 1
  %c = icmp i1 lt i64 %inext, i64 50
  condbr i1 %c, label %body, label %exit
exit:
  ret i64 7
}
)");
  EXPECT_TRUE(run(*M, "loop-delete"));
  ir::DominatorTree DT(*M->findFunction("main"));
  EXPECT_TRUE(ir::findNaturalLoops(*M->findFunction("main"), DT).empty());
  auto R = interpret(*M);
  ASSERT_TRUE(R.isOk());
  EXPECT_EQ(R->ReturnInt, 7);
}

TEST(Passes, MergeReturnUnifiesExits) {
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  %c = icmp i1 gt i64 %n, i64 0
  condbr i1 %c, label %a, label %b
a:
  ret i64 1
b:
  ret i64 2
}
)");
  EXPECT_TRUE(run(*M, "mergereturn"));
  size_t Rets = 0;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) {
        Rets += I.opcode() == Opcode::Ret;
      });
  EXPECT_EQ(Rets, 1u);
}

TEST(Passes, Reg2MemLowerSelectGrowCode) {
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://csmith-v0");
  auto M = datasets::generateProgram(99, Style, "m");
  ASSERT_TRUE(run(*M, "mem2reg"));
  size_t AfterMem2Reg = M->instructionCount();
  if (run(*M, "reg2mem")) {
    EXPECT_GT(M->instructionCount(), AfterMem2Reg);
  }
}

TEST(Passes, Reg2MemKeepsSwapLoopSemantics) {
  // The header phis swap each other every iteration, so each store into
  // a slot must read the other phi's load from the top of the block, and
  // %a and %b end up swapped once per iteration.
  auto M = parse(R"(module "t"
func @main(i64 %n) -> i64 {
entry:
  br label %loop
loop:
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %i = phi i64 [ 0, %entry ], [ %inext, %loop ]
  %inext = add i64 i64 %i, i64 1
  %c = icmp i1 lt i64 %inext, i64 %n
  condbr i1 %c, label %loop, label %exit
exit:
  %tens = mul i64 i64 %a, i64 10
  %r = add i64 i64 %tens, i64 %b
  ret i64 %r
}
)");
  auto results = [&] {
    std::vector<int64_t> Out;
    for (int64_t N : {1, 2, 5}) {
      ir::InterpreterOptions IOpts;
      IOpts.Args = {N};
      auto R = interpret(*M, IOpts);
      EXPECT_TRUE(R.isOk() && R->Completed) << "n=" << N;
      Out.push_back(R.isOk() ? R->ReturnInt : -1);
    }
    return Out;
  };
  const std::vector<int64_t> Before = results();
  EXPECT_EQ(Before, (std::vector<int64_t>{12, 21, 12}));
  EXPECT_TRUE(run(*M, "reg2mem"));
  size_t Phis = 0;
  M->findFunction("main")->forEachInstruction(
      [&](BasicBlock &, Instruction &I) { Phis += I.opcode() == Opcode::Phi; });
  EXPECT_EQ(Phis, 0u);
  EXPECT_EQ(results(), Before) << "after reg2mem:\n" << printModule(*M);
  EXPECT_TRUE(run(*M, "mem2reg"));
  EXPECT_EQ(results(), Before) << "after reg2mem, mem2reg:\n"
                               << printModule(*M);
}

TEST(Passes, GvnSinkIsNondeterministicAcrossClones) {
  // The reproduction of the paper's -gvn-sink bug: running the pass on two
  // structurally identical clones may produce different output because it
  // orders blocks by pointer value. With ASLR and heap layout differences
  // this usually differs, but is not guaranteed within a single process;
  // assert only that outputs stay semantically valid and the pass reports
  // nondeterminism.
  auto Pass = PassRegistry::instance().create("gvn-sink");
  ASSERT_NE(Pass, nullptr);
  EXPECT_FALSE(Pass->isDeterministic());
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://csmith-v0");
  auto M = datasets::generateProgram(5, Style, "m");
  auto Clone = M->clone();
  ASSERT_TRUE(runPass(*M, "gvn-sink").isOk());
  ASSERT_TRUE(runPass(*Clone, "gvn-sink").isOk());
  EXPECT_TRUE(verifyModule(*M).isOk());
  EXPECT_TRUE(verifyModule(*Clone).isOk());
}

TEST(Pipelines, EveryPipelinePassIsRegistered) {
  // Guards against pipeline/registry drift (a pipeline naming an
  // unregistered pass fails at runtime deep inside the GCC env).
  for (const std::string &Level : optimizationLevels()) {
    auto P = pipelineForLevel(Level);
    ASSERT_TRUE(P.isOk()) << Level;
    for (const std::string &Name : *P)
      EXPECT_TRUE(PassRegistry::instance().contains(Name))
          << Level << " references unknown pass " << Name;
  }
}

TEST(Pipelines, AllLevelsExist) {
  for (const std::string &Level : optimizationLevels()) {
    auto P = pipelineForLevel(Level);
    EXPECT_TRUE(P.isOk()) << Level;
  }
  EXPECT_FALSE(pipelineForLevel("-O9").isOk());
}

TEST(Pipelines, OzShrinksGeneratedPrograms) {
  datasets::ProgramStyle Style =
      datasets::styleForDataset("benchmark://csmith-v0");
  for (uint64_t Seed : {11ull, 22ull, 33ull}) {
    auto M = datasets::generateProgram(Seed, Style, "m");
    size_t Before = M->instructionCount();
    ASSERT_TRUE(runOptimizationLevel(*M, "-Oz").isOk());
    EXPECT_TRUE(verifyModule(*M).isOk());
    EXPECT_LT(M->instructionCount(), Before);
  }
}

// -- Property suite: random pipelines preserve semantics ---------------------

struct PipelineCase {
  uint64_t ProgramSeed;
  uint64_t PipelineSeed;
};

class RandomPipelineProperty : public ::testing::TestWithParam<PipelineCase> {
};

TEST_P(RandomPipelineProperty, VerifiesAndPreservesSemantics) {
  const PipelineCase &C = GetParam();
  datasets::ProgramStyle Style = datasets::styleForDataset(
      C.ProgramSeed % 2 ? "benchmark://npb-v0" : "benchmark://csmith-v0");
  auto Reference = datasets::generateProgram(C.ProgramSeed, Style, "m");
  auto M = Reference->clone();

  const auto &Actions = PassRegistry::instance().defaultActionNames();
  Rng Gen(C.PipelineSeed);
  ir::InterpreterOptions IOpts;
  IOpts.Args = {static_cast<int64_t>(C.ProgramSeed % 7)};

  for (int Step = 0; Step < 20; ++Step) {
    const std::string &Pass = Actions[Gen.bounded(Actions.size())];
    auto Changed = runPass(*M, Pass);
    ASSERT_TRUE(Changed.isOk()) << Pass;
    ASSERT_TRUE(verifyModule(*M).isOk()) << "after " << Pass;
    analysis::ValidationResult V =
        analysis::validateSemantics(*Reference, *M, IOpts);
    ASSERT_TRUE(V.Ok) << "after " << Pass << ": " << V.Error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomPipelineProperty,
    ::testing::Values(PipelineCase{101, 1}, PipelineCase{102, 2},
                      PipelineCase{103, 3}, PipelineCase{104, 4},
                      PipelineCase{105, 5}, PipelineCase{106, 6},
                      PipelineCase{107, 7}, PipelineCase{108, 8},
                      PipelineCase{109, 9}, PipelineCase{110, 10}));

} // namespace
