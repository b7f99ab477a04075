//===- analysis/Inst2vec.h - Sequential embedding space ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inst2vec observation space: one 200-dimensional float vector per
/// instruction (Ben-Nun et al., NeurIPS'18). The original uses pretrained
/// skip-gram embeddings over an LLVM IR vocabulary; we reproduce the space
/// shape and cost profile with deterministic hash-seeded embeddings over a
/// canonicalized statement vocabulary (opcode + operand kinds + types).
/// Like the paper's (Table III), this is one of the two expensive
/// observation spaces: cost scales with program length x embedding width.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_ANALYSIS_INST2VEC_H
#define COMPILER_GYM_ANALYSIS_INST2VEC_H

#include "ir/Module.h"

#include <vector>

namespace compiler_gym {
namespace analysis {

constexpr int Inst2vecDims = 200;

/// Row-major (#instructions x 200) embedding matrix for \p M.
std::vector<float> inst2vec(const ir::Module &M);

/// \p F's rows of the embedding matrix (instructions in block order).
/// Concatenating per-function segments in module function order is
/// bit-identical to inst2vec(M) — the decomposition passes::AnalysisManager
/// exploits to recompute only dirtied functions.
std::vector<float> inst2vecFunction(const ir::Function &F);

/// The canonicalized statement string an instruction embeds as (the
/// "vocabulary key"); exposed for tests and the explorer.
std::string inst2vecStatement(const ir::Instruction &I);

} // namespace analysis
} // namespace compiler_gym

#endif // COMPILER_GYM_ANALYSIS_INST2VEC_H
