//===- analysis/ProGraML.h - Graph program representation -------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ProGraML observation space (Cummins et al., ICML'21): a directed
/// multigraph over instructions, values and functions with typed,
/// positional edges for control flow, data flow and calls. This is the
/// most expensive observation space (Table III) and the input to the
/// GGNN cost model of Fig 8.
///
/// Two build paths produce the same graph:
///  * buildProgramGraph — the whole-module reference builder.
///  * per-function GraphFragments assembled by assembleGraphFragments —
///    the incremental path behind passes::AnalysisManager. A fragment
///    references everything outside its function symbolically (callees,
///    globals, constants by identity), so a one-function edit invalidates
///    exactly one fragment and the assembled wire encoding is byte-stable
///    everywhere else — which is what makes serialized ProGraML replies
///    delta-friendly on the RPC wire.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_ANALYSIS_PROGRAML_H
#define COMPILER_GYM_ANALYSIS_PROGRAML_H

#include "ir/Module.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace compiler_gym {
namespace analysis {

/// A ProGraML-style program graph.
struct ProgramGraph {
  enum class NodeKind { Instruction, Variable, Constant, Function };
  enum class EdgeFlow { Control, Data, Call };

  struct Node {
    NodeKind Kind;
    std::string Text;  ///< Canonical token (opcode, type, or symbol).
    int32_t Feature;   ///< Small integer feature (opcode or type index).

    bool operator==(const Node &O) const {
      return Kind == O.Kind && Text == O.Text && Feature == O.Feature;
    }
  };
  struct Edge {
    int32_t Source;
    int32_t Target;
    EdgeFlow Flow;
    int32_t Position; ///< Operand position for data edges, else 0.

    bool operator==(const Edge &O) const {
      return Source == O.Source && Target == O.Target && Flow == O.Flow &&
             Position == O.Position;
    }
  };

  std::vector<Node> Nodes;
  std::vector<Edge> Edges;

  size_t numNodes() const { return Nodes.size(); }
  size_t numEdges() const { return Edges.size(); }

  bool operator==(const ProgramGraph &O) const {
    return Nodes == O.Nodes && Edges == O.Edges;
  }
};

/// Builds the graph for \p M.
ProgramGraph buildProgramGraph(const ir::Module &M);

/// Compact serialization (for the transition database and RPC transport).
/// Emits the flat v1 encoding; deserializeGraph accepts both v1 and the
/// fragment-sectioned v2 encoding produced by assembleGraphFragments.
std::string serializeGraph(const ProgramGraph &G);
bool deserializeGraph(const std::string &Bytes, ProgramGraph &Out);

// -- Incremental per-function decomposition -----------------------------------

/// One function's contribution to the program graph, cached by
/// passes::AnalysisManager and stitched back together by
/// assembleGraphFragments. Everything inside the function (instruction
/// nodes, control edges, intra-function data edges) is encoded in Bytes
/// with *local* indices; references that cross the function boundary are
/// symbolic (pointer identity resolved at assembly time), so a fragment
/// stays valid while other functions change around it.
struct GraphFragment {
  uint32_t NumInsts = 0;
  /// Local-coordinate chunk payload (see ProGraML.cpp for the layout).
  /// Copied verbatim into the v2 wire encoding — the byte-stability that
  /// wire-level observation deltas rely on.
  std::string Bytes;
  /// Called functions by name, in first-use order. Symbolic like the
  /// IR's own FunctionRefs, so a fragment survives copy-on-write function
  /// replacement in forked modules.
  std::vector<std::string> Callees;
  /// Referenced globals, in first-use order (identity only).
  std::vector<const ir::GlobalVariable *> Globals;
  /// Referenced constants with their type feature, in first-use order.
  /// The type is captured at build time so assembly never dereferences
  /// the (module-uniqued, never-freed) Constant pointer.
  std::vector<std::pair<const ir::Constant *, int32_t>> Constants;
};

/// Builds \p F's fragment (one function scan).
GraphFragment buildGraphFragment(const ir::Function &F);

/// Assembles per-function fragments (parallel to M.functions()) into the
/// v2 wire encoding. deserializeGraph(result) reconstructs a graph
/// bit-identical to buildProgramGraph(M). Every fragment must be
/// up-to-date and reference only entities present in \p M — the
/// AnalysisManager guarantees this by rebuilding stale fragments first.
std::string assembleGraphFragments(const ir::Module &M,
                                   const std::vector<const GraphFragment *> &Frags);

} // namespace analysis
} // namespace compiler_gym

#endif // COMPILER_GYM_ANALYSIS_PROGRAML_H
