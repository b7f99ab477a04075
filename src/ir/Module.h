//===- ir/Module.h - Top-level IR container ---------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module owns functions, globals, constants and function-reference
/// wrappers through refcounted handles, so modules support two copy
/// operations:
///  * clone() — deep structural copy; every Value is duplicated and
///    remapped. O(|module|).
///  * share() — structural sharing: the new module references the same
///    per-function payloads and the same uniqued-symbol pools. O(#functions)
///    pointer copies, which backs the O(1) environment fork() operator.
///
/// A shared function payload is immutable by contract: mutation goes
/// through the pass layer, which calls unshareFunction() (copy-on-write)
/// before handing a function to a transform, and keeps the copy. Until the
/// copy changes, its slot keeps the original as a frozen twin, which
/// freeze() hands to the crash-recovery snapshot store in its place.
/// Cross-function call operands are name-based (FunctionRef stores the
/// callee's name, resolved against the enclosing module), so a COW copy of
/// one function never invalidates call sites in functions still shared
/// with other modules.
///
/// Modules are hashable: hash() digests the content the printer renders in
/// one read-only walk, without building the text. The digest backs state
/// identity in the transition database, the observation caches and the
/// snapshot store.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_MODULE_H
#define COMPILER_GYM_IR_MODULE_H

#include "ir/Function.h"
#include "util/Hash.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace compiler_gym {
namespace ir {

/// A whole translation unit of the mini-IR.
class Module {
public:
  Module() : P(std::make_shared<Pools>()) {}
  explicit Module(std::string Name)
      : Name(std::move(Name)), P(std::make_shared<Pools>()) {}

  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  // -- Functions -----------------------------------------------------------
  Function *createFunction(std::string FnName, Type ReturnType);
  Function *findFunction(const std::string &FnName) const;
  void eraseFunction(Function *F);
  const std::vector<std::shared_ptr<Function>> &functions() const {
    return Funcs;
  }

  /// True if the function at \p Idx is shared with another module (or a
  /// snapshot) and must be copied before mutation.
  bool isFunctionShared(size_t Idx) const {
    return Funcs[Idx].use_count() > 1;
  }

  /// Copy-on-write: replaces the (shared) payload at \p Idx with a deep
  /// copy owned exclusively by this module. Operands that point into the
  /// shared symbol pools (constants, globals, function refs) are NOT
  /// remapped — pool identity is stable across a fork family. Returns the
  /// original, which the slot keeps as the copy's frozen twin until
  /// functionChanged(\p Idx).
  const Function *unshareFunction(size_t Idx);

  /// Every transform that changes the payload at \p Idx must report it
  /// here, so freeze() stops using the stale frozen twin.
  void functionChanged(size_t Idx) { Twins[Idx].reset(); }

  // -- Globals -------------------------------------------------------------
  GlobalVariable *createGlobal(std::string GlobalName, uint32_t SizeWords);
  GlobalVariable *findGlobal(const std::string &GlobalName) const;
  const std::vector<std::shared_ptr<GlobalVariable>> &globals() const {
    return Globals;
  }

  // -- Constant pool (uniqued) ----------------------------------------------
  Constant *getConstInt(Type Ty, int64_t V);
  Constant *getConstFloat(double V);
  Constant *getTrue() { return getConstInt(Type::I1, 1); }
  Constant *getFalse() { return getConstInt(Type::I1, 0); }

  /// Function-reference operand naming \p CalleeName (uniqued). The ref is
  /// purely symbolic: it resolves against whatever module the containing
  /// instruction is reached through, so shared functions calling a
  /// COW-copied sibling see the copy.
  FunctionRef *getFunctionRef(const std::string &CalleeName);
  FunctionRef *getFunctionRef(const Function *F);

  // -- Whole-module utilities ------------------------------------------------
  size_t instructionCount() const;

  /// Deep structural copy. All Value pointers are remapped.
  std::unique_ptr<Module> clone() const;

  /// Structurally shared copy: O(#functions). The new module aliases every
  /// function payload, global and pool entry; first mutation of a shared
  /// function triggers unshareFunction() in the pass layer.
  std::unique_ptr<Module> share() const;

  /// Like share(), but every payload is immutable: an exclusive slot with
  /// a frozen twin contributes the twin, so this module keeps its copy.
  /// Any other slot contributes its payload, so a changed exclusive one is
  /// handed over and the next pass copies it once more. Never clones.
  std::unique_ptr<Module> freeze() const;

  /// Stable state identity for the transition database, the caches keyed
  /// on LlvmSession::stateKey() and nondeterminism detection. One walk of
  /// the IR, O(|module|), building no strings, absorbs what printModule()
  /// renders: the module name; each global's name and size; per function
  /// its name, noinline flag, return type and arguments; per block its
  /// name; per instruction its name, opcode, type, predicate and alloca
  /// size; and per operand a constant's type and bits, a global's or
  /// callee's name, or a local value's definition index in its function.
  ///
  /// Invariant: modules that print differently hash differently (up to
  /// 128-bit collision odds), and the digest is the same in every process,
  /// because it reads no pointer values and no unordered-container order.
  /// The converse does not hold: a value named like the printer's default
  /// (e.g. "t5") and an unnamed one print alike but hash apart, so a
  /// module re-parsed from its printed text may hash differently from the
  /// original. Either case costs at most a cache miss.
  StateHash hash() const;

private:
  /// Uniqued symbols shared copy-on-write across a fork family. Lookup
  /// never mutates; insertion detaches the pool first when it is shared,
  /// so concurrent sessions forked from one parent never write to a map
  /// another session is reading.
  struct Pools {
    std::map<std::pair<int, int64_t>, std::shared_ptr<Constant>> IntConstants;
    std::map<double, std::shared_ptr<Constant>> FloatConstants;
    std::map<std::string, std::shared_ptr<FunctionRef>> FunctionRefs;
  };

  /// Clones the pool maps (shallow: entries stay shared, preserving
  /// Constant/FunctionRef pointer identity) when another module holds them.
  void detachPoolsForInsert();

  std::string Name;
  std::vector<std::shared_ptr<Function>> Funcs;
  /// Parallel to Funcs: each unchanged COW copy's frozen twin, else null.
  std::vector<std::shared_ptr<Function>> Twins;
  std::vector<std::shared_ptr<GlobalVariable>> Globals;
  std::shared_ptr<Pools> P;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_MODULE_H
