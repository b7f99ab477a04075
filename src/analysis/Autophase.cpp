//===- analysis/Autophase.cpp ---------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Autophase.h"

#include "ir/CFG.h"

#include <algorithm>
#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::analysis;
using namespace compiler_gym::ir;

namespace {

/// The 56 feature slots. Kept as an enum so the extractor and the name
/// table cannot drift apart.
enum Feature {
  BBCount = 0,         // Number of basic blocks.
  BBOneSucc,           // Blocks with exactly one successor.
  BBTwoSucc,           // Blocks with two successors.
  BBOnePred,           // Blocks with exactly one predecessor.
  BBTwoPred,           // Blocks with two predecessors.
  BBMorePreds,         // Blocks with more than two predecessors.
  BBNoSucc,            // Blocks with no successors (returns).
  BBBeginPhi,          // Blocks that begin with a phi.
  BBArgsPhiGt5,        // Blocks with >5 total phi args.
  BBArgsPhi15,         // Blocks with 1..5 total phi args.
  BBInstLt15,          // Blocks with fewer than 15 instructions.
  BBInst15to500,       // Blocks with 15..500 instructions.
  BBInstGt500,         // Blocks with more than 500 instructions.
  CfgEdges,            // Total CFG edges.
  CriticalEdges,       // Edges whose source has >1 succ and dest >1 pred.
  Branches,            // Unconditional branches.
  CondBranches,        // Conditional branches.
  PhiCount,            // Phi nodes.
  PhiArgCount,         // Total phi incoming arcs.
  BBPhiCount03,        // Blocks with 1..3 phis.
  BBPhiCountGt3,       // Blocks with >3 phis.
  InstCountTotal,      // Total instructions.
  LoadCount,
  StoreCount,
  AllocaCount,
  GepCount,
  CallCount,
  RetCount,
  SelectCount,
  IntBinopCount,       // add/sub/mul/div/rem.
  BitBinopCount,       // and/or/xor/shifts.
  FloatBinopCount,     // fadd..fdiv.
  AddCount,
  SubCount,
  MulCount,
  DivRemCount,
  AndCount,
  OrCount,
  XorCount,
  ShlCount,
  ShrCount,            // lshr + ashr.
  ICmpCount,
  FCmpCount,
  CastCount,
  ZextCount,
  SextTruncCount,
  BinopConstOperand,   // Binary ops with a constant operand.
  BinopSameOperands,   // Binary ops with both operands identical.
  CallArgsCount,       // Total call args.
  CallsRetInt,         // Calls returning an integer.
  CallsRetVoid,        // Calls returning void.
  FunctionCount,
  GlobalCount,
  MemInstCount,        // load + store + alloca + gep.
  UncondBrDominated,   // Blocks whose single pred ends in an uncond br.
  OneUseInstCount,     // Instructions with exactly one use.
};
static_assert(OneUseInstCount == AutophaseDims - 1,
              "feature enum must cover exactly 56 dims");

const char *FeatureNames[AutophaseDims] = {
    "bb_count",         "bb_one_succ",      "bb_two_succ",
    "bb_one_pred",      "bb_two_pred",      "bb_more_preds",
    "bb_no_succ",       "bb_begin_phi",     "bb_phi_args_gt5",
    "bb_phi_args_1to5", "bb_inst_lt15",     "bb_inst_15to500",
    "bb_inst_gt500",    "cfg_edges",        "critical_edges",
    "branches",         "cond_branches",    "phi_count",
    "phi_arg_count",    "bb_phi_1to3",      "bb_phi_gt3",
    "inst_count",       "load_count",       "store_count",
    "alloca_count",     "gep_count",        "call_count",
    "ret_count",        "select_count",     "int_binop_count",
    "bit_binop_count",  "float_binop_count", "add_count",
    "sub_count",        "mul_count",        "divrem_count",
    "and_count",        "or_count",         "xor_count",
    "shl_count",        "shr_count",        "icmp_count",
    "fcmp_count",       "cast_count",       "zext_count",
    "sext_trunc_count", "binop_const_operand", "binop_same_operands",
    "call_args_count",  "calls_ret_int",    "calls_ret_void",
    "function_count",   "global_count",     "mem_inst_count",
    "uncond_br_dominated", "one_use_inst_count",
};

} // namespace

const char *analysis::autophaseFeatureName(int Dim) {
  if (Dim < 0 || Dim >= AutophaseDims)
    return "?";
  return FeatureNames[Dim];
}

std::vector<int64_t> analysis::autophaseFunction(const ir::Function &F) {
  std::vector<int64_t> V(AutophaseDims, 0);
  {
    auto UseCounts = F.computeUseCounts();
    const PredecessorTable Preds(F);
    for (const auto &BBPtr : F.blocks()) {
      const BasicBlock &BB = *BBPtr;
      ++V[BBCount];
      std::vector<BasicBlock *> Succs = BB.successors();
      const std::vector<BasicBlock *> &BlockPreds = Preds[&BB];
      if (Succs.size() == 1)
        ++V[BBOneSucc];
      else if (Succs.size() == 2)
        ++V[BBTwoSucc];
      else if (Succs.empty())
        ++V[BBNoSucc];
      if (BlockPreds.size() == 1) {
        ++V[BBOnePred];
        Instruction *PredTerm = BlockPreds[0]->terminator();
        if (PredTerm && PredTerm->opcode() == Opcode::Br)
          ++V[UncondBrDominated];
      } else if (BlockPreds.size() == 2) {
        ++V[BBTwoPred];
      } else if (BlockPreds.size() > 2) {
        ++V[BBMorePreds];
      }
      V[CfgEdges] += static_cast<int64_t>(Succs.size());
      if (Succs.size() > 1)
        for (BasicBlock *Succ : Succs)
          if (Preds[Succ].size() > 1)
            ++V[CriticalEdges];

      size_t NumPhis = BB.firstNonPhi();
      int64_t PhiArgs = 0;
      for (size_t I = 0; I < NumPhis; ++I)
        PhiArgs += BB.instructions()[I]->numIncoming();
      if (NumPhis > 0)
        ++V[BBBeginPhi];
      if (PhiArgs > 5)
        ++V[BBArgsPhiGt5];
      else if (PhiArgs >= 1)
        ++V[BBArgsPhi15];
      if (NumPhis >= 1 && NumPhis <= 3)
        ++V[BBPhiCount03];
      else if (NumPhis > 3)
        ++V[BBPhiCountGt3];
      if (BB.size() < 15)
        ++V[BBInstLt15];
      else if (BB.size() <= 500)
        ++V[BBInst15to500];
      else
        ++V[BBInstGt500];

      for (const auto &I : BB.instructions()) {
        ++V[InstCountTotal];
        if (UseCounts.count(I.get()) && UseCounts.at(I.get()) == 1)
          ++V[OneUseInstCount];
        switch (I->opcode()) {
        case Opcode::Br:
          ++V[Branches];
          break;
        case Opcode::CondBr:
          ++V[CondBranches];
          break;
        case Opcode::Phi:
          ++V[PhiCount];
          V[PhiArgCount] += I->numIncoming();
          break;
        case Opcode::Load:
          ++V[LoadCount];
          ++V[MemInstCount];
          break;
        case Opcode::Store:
          ++V[StoreCount];
          ++V[MemInstCount];
          break;
        case Opcode::Alloca:
          ++V[AllocaCount];
          ++V[MemInstCount];
          break;
        case Opcode::Gep:
          ++V[GepCount];
          ++V[MemInstCount];
          break;
        case Opcode::Call:
          ++V[CallCount];
          V[CallArgsCount] += I->numCallArgs();
          if (isIntegerType(I->type()))
            ++V[CallsRetInt];
          else if (I->type() == Type::Void)
            ++V[CallsRetVoid];
          break;
        case Opcode::Ret:
          ++V[RetCount];
          break;
        case Opcode::Select:
          ++V[SelectCount];
          break;
        case Opcode::Add:
          ++V[AddCount];
          break;
        case Opcode::Sub:
          ++V[SubCount];
          break;
        case Opcode::Mul:
          ++V[MulCount];
          break;
        case Opcode::SDiv:
        case Opcode::SRem:
          ++V[DivRemCount];
          break;
        case Opcode::And:
          ++V[AndCount];
          break;
        case Opcode::Or:
          ++V[OrCount];
          break;
        case Opcode::Xor:
          ++V[XorCount];
          break;
        case Opcode::Shl:
          ++V[ShlCount];
          break;
        case Opcode::LShr:
        case Opcode::AShr:
          ++V[ShrCount];
          break;
        case Opcode::ICmp:
          ++V[ICmpCount];
          break;
        case Opcode::FCmp:
          ++V[FCmpCount];
          break;
        case Opcode::ZExt:
          ++V[ZextCount];
          ++V[CastCount];
          break;
        case Opcode::SExt:
        case Opcode::Trunc:
          ++V[SextTruncCount];
          ++V[CastCount];
          break;
        case Opcode::SIToFP:
        case Opcode::FPToSI:
        case Opcode::PtrToInt:
        case Opcode::IntToPtr:
          ++V[CastCount];
          break;
        default:
          break;
        }
        if (I->isIntArith())
          ++V[IntBinopCount];
        else if (I->isBitwise())
          ++V[BitBinopCount];
        else if (I->isFloatArith())
          ++V[FloatBinopCount];
        if (I->isBinaryOp()) {
          if (isa<Constant>(I->operand(0)) || isa<Constant>(I->operand(1)))
            ++V[BinopConstOperand];
          if (I->operand(0) == I->operand(1))
            ++V[BinopSameOperands];
        }
      }
    }
  }
  return V;
}

void analysis::accumulateAutophase(std::vector<int64_t> &Agg,
                                   const std::vector<int64_t> &FV) {
  for (int D = 0; D < AutophaseDims; ++D) {
    if (D == FunctionCount || D == GlobalCount)
      continue; // Module-level; set by finalizeAutophase.
    Agg[D] += FV[D];
  }
}

void analysis::finalizeAutophase(std::vector<int64_t> &Agg, const Module &M) {
  Agg[FunctionCount] = static_cast<int64_t>(M.functions().size());
  Agg[GlobalCount] = static_cast<int64_t>(M.globals().size());
}

std::vector<int64_t> analysis::autophase(const Module &M) {
  std::vector<int64_t> V(AutophaseDims, 0);
  for (const auto &F : M.functions())
    accumulateAutophase(V, autophaseFunction(*F));
  finalizeAutophase(V, M);
  return V;
}
