//===- ir/Module.cpp ------------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::ir;

Function *Module::createFunction(std::string FnName, Type ReturnType) {
  Funcs.push_back(std::make_shared<Function>(std::move(FnName), ReturnType));
  Funcs.back()->setParent(this);
  Twins.emplace_back();
  return Funcs.back().get();
}

Function *Module::findFunction(const std::string &FnName) const {
  for (const auto &F : Funcs)
    if (F->name() == FnName)
      return F.get();
  return nullptr;
}

void Module::eraseFunction(Function *F) {
  // The FunctionRefs pool is left untouched: refs are name-based and a
  // ref to an erased function simply stops resolving. Erasing from a
  // potentially shared pool would mutate sibling modules.
  auto It = std::find_if(Funcs.begin(), Funcs.end(),
                         [&](const auto &P) { return P.get() == F; });
  assert(It != Funcs.end() && "function not in module");
  Twins.erase(Twins.begin() + (It - Funcs.begin()));
  Funcs.erase(It);
}

GlobalVariable *Module::createGlobal(std::string GlobalName,
                                     uint32_t SizeWords) {
  Globals.push_back(
      std::make_shared<GlobalVariable>(std::move(GlobalName), SizeWords));
  return Globals.back().get();
}

GlobalVariable *Module::findGlobal(const std::string &GlobalName) const {
  for (const auto &G : Globals)
    if (G->name() == GlobalName)
      return G.get();
  return nullptr;
}

void Module::detachPoolsForInsert() {
  if (P.use_count() > 1)
    P = std::make_shared<Pools>(*P);
}

Constant *Module::getConstInt(Type Ty, int64_t V) {
  assert(isIntegerType(Ty) && "getConstInt with non-integer type");
  if (Ty == Type::I1)
    V = V ? 1 : 0;
  else if (Ty == Type::I32)
    V = static_cast<int32_t>(V);
  auto Key = std::make_pair(static_cast<int>(Ty), V);
  auto It = P->IntConstants.find(Key);
  if (It != P->IntConstants.end())
    return It->second.get();
  detachPoolsForInsert();
  auto C = std::make_shared<Constant>(Ty, V);
  Constant *Out = C.get();
  P->IntConstants.emplace(Key, std::move(C));
  return Out;
}

Constant *Module::getConstFloat(double V) {
  auto It = P->FloatConstants.find(V);
  if (It != P->FloatConstants.end())
    return It->second.get();
  detachPoolsForInsert();
  auto C = std::make_shared<Constant>(V);
  Constant *Out = C.get();
  P->FloatConstants.emplace(V, std::move(C));
  return Out;
}

FunctionRef *Module::getFunctionRef(const std::string &CalleeName) {
  auto It = P->FunctionRefs.find(CalleeName);
  if (It != P->FunctionRefs.end())
    return It->second.get();
  detachPoolsForInsert();
  auto Ref = std::make_shared<FunctionRef>(CalleeName);
  FunctionRef *Out = Ref.get();
  P->FunctionRefs.emplace(CalleeName, std::move(Ref));
  return Out;
}

FunctionRef *Module::getFunctionRef(const Function *F) {
  return getFunctionRef(F->name());
}

size_t Module::instructionCount() const {
  size_t N = 0;
  for (const auto &F : Funcs)
    N += F->instructionCount();
  return N;
}

namespace {

/// Deep-copies the body of \p Src into the empty function \p Dst, remapping
/// function-local values (arguments, blocks, instruction results). Operands
/// resolved through module-level pools (constants, globals, function refs)
/// are aliased, not copied: pool identity is stable across clone targets
/// that share pools, and the deep-clone path pre-seeds \p Map with its own
/// remapped globals/constants via \p Remap.
void cloneFunctionBody(
    const Function &Src, Function &Dst,
    std::unordered_map<const Value *, Value *> &Map,
    const std::function<Value *(const Value *)> &RemapPooled) {
  Map.reserve(Map.size() + Src.numArgs() + Src.numBlocks() +
              Src.instructionCount());
  for (size_t I = 0; I < Src.numArgs(); ++I) {
    Argument *A = Src.arg(I);
    Map[A] = Dst.addArgument(A->type(), A->name());
  }
  for (const auto &BB : Src.blocks())
    Map[BB.get()] = Dst.createBlock(BB->name());

  for (const auto &BB : Src.blocks()) {
    auto *NewBB = cast<BasicBlock>(Map.at(BB.get()));
    for (const auto &I : BB->instructions()) {
      auto NewI = std::make_unique<Instruction>(I->opcode(), I->type());
      NewI->setName(I->name());
      NewI->setPred(I->pred());
      NewI->setAllocaWords(I->allocaWords());
      NewBB->append(std::move(NewI));
      Map[I.get()] = NewBB->back();
    }
  }
  // Second pass: wire operands (instruction results may be forward refs).
  for (const auto &BB : Src.blocks()) {
    auto *NewBB = cast<BasicBlock>(Map.at(BB.get()));
    for (size_t Idx = 0; Idx < BB->size(); ++Idx) {
      const Instruction *OldI = BB->instructions()[Idx].get();
      Instruction *NewI = NewBB->instructions()[Idx].get();
      NewI->operands().reserve(OldI->numOperands());
      for (const Value *Op : OldI->operands()) {
        auto It = Map.find(Op);
        if (It != Map.end()) {
          NewI->operands().push_back(It->second);
          continue;
        }
        Value *Pooled = RemapPooled(Op);
        assert(Pooled && "unmapped value during clone");
        NewI->operands().push_back(Pooled);
      }
    }
  }
}

} // namespace

const Function *Module::unshareFunction(size_t Idx) {
  assert(Idx < Funcs.size() && "function index out of range");
  std::shared_ptr<Function> Old = Funcs[Idx];
  auto Copy = std::make_shared<Function>(Old->name(), Old->returnType());
  Copy->setNoInline(Old->isNoInline());
  Copy->setParent(this);

  std::unordered_map<const Value *, Value *> Map;
  cloneFunctionBody(*Old, *Copy, Map, [&](const Value *Op) -> Value * {
    // Constants, globals and function refs live in pools shared across the
    // fork family: alias them. The const_cast is sound because pool
    // entries are uniqued immutable values.
    return const_cast<Value *>(Op);
  });

  Funcs[Idx] = std::move(Copy);
  Twins[Idx] = std::move(Old);
  return Twins[Idx].get();
}

std::unique_ptr<Module> Module::clone() const {
  auto Out = std::make_unique<Module>(Name);
  std::unordered_map<const Value *, Value *> Map;

  for (const auto &G : Globals)
    Map[G.get()] = Out->createGlobal(G->name(), G->sizeWords());

  // First pass: create empty functions so calls resolve by name.
  for (const auto &F : Funcs) {
    Function *NewF = Out->createFunction(F->name(), F->returnType());
    NewF->setNoInline(F->isNoInline());
  }

  auto RemapPooled = [&](const Value *V) -> Value * {
    if (const auto *C = dyn_cast<Constant>(V)) {
      if (C->type() == Type::F64)
        return Out->getConstFloat(C->floatValue());
      return Out->getConstInt(C->type(), C->intValue());
    }
    if (const auto *FR = dyn_cast<FunctionRef>(V))
      return Out->getFunctionRef(FR->calleeName());
    return nullptr;
  };

  for (size_t I = 0; I < Funcs.size(); ++I)
    cloneFunctionBody(*Funcs[I], *Out->Funcs[I], Map, RemapPooled);
  return Out;
}

std::unique_ptr<Module> Module::share() const {
  auto Out = std::make_unique<Module>(Name);
  Out->Funcs = Funcs;     // Payloads aliased; COW on first mutation.
  Out->Twins.resize(Funcs.size());
  Out->Globals = Globals; // Globals are shared for the module's lifetime.
  Out->P = P;             // Pools detach on first insert.
  return Out;
}

std::unique_ptr<Module> Module::freeze() const {
  auto Out = std::make_unique<Module>(Name);
  Out->Funcs.reserve(Funcs.size());
  for (size_t I = 0; I < Funcs.size(); ++I)
    Out->Funcs.push_back(Twins[I] && !isFunctionShared(I) ? Twins[I]
                                                          : Funcs[I]);
  Out->Twins.resize(Funcs.size());
  Out->Globals = Globals;
  Out->P = P;
  return Out;
}

namespace {

/// Streaming digest over 64-bit words. Two lanes absorb every word with
/// xxHash64's multiply-rotate round, each with its own constants. For a
/// fixed lane state the round is a bijection of the word, so two equally
/// long streams that differ in exactly one word never collide.
class WordDigest {
public:
  void word(uint64_t W) {
    A = std::rotl(A + W * 0xC2B2AE3D27D4EB4Full, 31) * 0x9E3779B185EBCA87ull;
    B = std::rotl(B + W * 0x165667B19E3779F9ull, 27) * 0x85EBCA77C2B2AE63ull;
  }

  /// Absorbs \p S as one word holding its length and \p Low (any 32-bit
  /// field of the caller's), then its bytes eight to a word.
  void str(std::string_view S, uint32_t Low) {
    word(static_cast<uint64_t>(S.size()) << 32 | Low);
    size_t I = 0;
    for (; I + 8 <= S.size(); I += 8) {
      uint64_t W;
      std::memcpy(&W, S.data() + I, 8);
      word(W);
    }
    if (I < S.size()) {
      uint64_t W = 0;
      std::memcpy(&W, S.data() + I, S.size() - I);
      word(W);
    }
  }

  /// Finalizes with murmur3's fmix64. Words 0-1 (the 64-bit map key) are
  /// a bijection of lane A; the full digest is a bijection of both lanes.
  StateHash finish() const {
    uint64_t X = fmix(A);
    uint64_t Y = fmix(B ^ X);
    uint64_t Z = fmix(X + Y * 0x9E3779B97F4A7C15ull);
    StateHash H;
    H.Words = {static_cast<uint32_t>(X >> 32), static_cast<uint32_t>(X),
               static_cast<uint32_t>(Y >> 32), static_cast<uint32_t>(Y),
               static_cast<uint32_t>(Z ^ (Z >> 32))};
    return H;
  }

private:
  static uint64_t fmix(uint64_t K) {
    K ^= K >> 33;
    K *= 0xFF51AFD7ED558CCDull;
    K ^= K >> 33;
    K *= 0xC4CEB9FE1A85EC53ull;
    K ^= K >> 33;
    return K;
  }

  uint64_t A = 0x243F6A8885A308D3ull;
  uint64_t B = 0x13198A2E03707344ull;
};

/// Local value -> index within one function, in first-sight order: a flat
/// open-addressing table with linear probing. Slot placement reads
/// pointer values; the digest reads only the indices, so it never depends
/// on heap layout.
class LocalIndex {
public:
  /// Empties the table, sized for \p Expected entries.
  void reset(size_t Expected) {
    size_t Cap = 16;
    while (Cap < 2 * Expected)
      Cap <<= 1;
    Slots.assign(Cap, Slot());
    Size = 0;
  }

  /// Index of \p V; assigns the next index when \p V is new, which
  /// \p Inserted reports.
  uint32_t indexOf(const Value *V, bool &Inserted) {
    Slot *S = find(V);
    Inserted = !S->Key;
    if (Inserted) {
      if (2 * (Size + 1) > Slots.size()) {
        grow();
        S = find(V);
      }
      *S = {V, Size++};
    }
    return S->Index;
  }

private:
  struct Slot {
    const Value *Key = nullptr;
    uint32_t Index = 0;
  };

  Slot *find(const Value *V) {
    size_t Mask = Slots.size() - 1;
    size_t I = (reinterpret_cast<uintptr_t>(V) * 0x9E3779B97F4A7C15ull) >>
               (64 - std::countr_zero(Slots.size()));
    while (Slots[I].Key && Slots[I].Key != V)
      I = (I + 1) & Mask;
    return &Slots[I];
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.size() * 2, Slot());
    for (const Slot &S : Old)
      if (S.Key)
        *find(S.Key) = S;
  }

  std::vector<Slot> Slots;
  uint32_t Size = 0;
};

enum OperandTag : uint64_t { OpConst, OpGlobal, OpFunction, OpLocal, OpOther };

void hashOperand(WordDigest &D, LocalIndex &Locals, const Value *V) {
  if (const auto *C = dyn_cast<Constant>(V)) {
    D.word(OpConst | static_cast<uint64_t>(C->type()) << 8);
    D.word(C->type() == Type::F64 ? std::bit_cast<uint64_t>(C->floatValue())
                                  : static_cast<uint64_t>(C->intValue()));
    return;
  }
  if (const auto *G = dyn_cast<GlobalVariable>(V)) {
    D.str(G->name(), OpGlobal);
    return;
  }
  if (const auto *FR = dyn_cast<FunctionRef>(V)) {
    D.str(FR->calleeName(), OpFunction);
    return;
  }
  bool Inserted = false;
  uint32_t Index = Locals.indexOf(V, Inserted);
  if (!Inserted) {
    D.word(OpLocal | static_cast<uint64_t>(Index) << 8);
    return;
  }
  // A value defined outside this function (malformed IR): spell it out on
  // first sight, then refer to it by its new index like any local.
  D.word(OpOther | static_cast<uint64_t>(V->kind()) << 8 |
         static_cast<uint64_t>(V->type()) << 16);
  D.str(V->name(), 0);
}

void hashFunction(WordDigest &D, LocalIndex &Locals, const Function &F) {
  // Pass 1: number the local definitions so operands, including forward
  // references, can name them by definition index.
  size_t NumLocals = F.numArgs() + F.numBlocks();
  for (const auto &BB : F.blocks())
    NumLocals += BB->size();
  Locals.reset(NumLocals);
  bool Inserted = false;
  for (size_t I = 0; I < F.numArgs(); ++I)
    Locals.indexOf(F.arg(I), Inserted);
  for (const auto &BB : F.blocks()) {
    Locals.indexOf(BB.get(), Inserted);
    for (const auto &I : BB->instructions())
      Locals.indexOf(I.get(), Inserted);
  }

  // Pass 2: absorb what the printer renders, in its order. Every count
  // precedes the items it counts, so the word stream decodes uniquely.
  D.word(static_cast<uint64_t>(F.isNoInline()) |
         static_cast<uint64_t>(F.returnType()) << 8 |
         static_cast<uint64_t>(F.numArgs()) << 32);
  D.str(F.name(), static_cast<uint32_t>(F.numBlocks()));
  for (size_t I = 0; I < F.numArgs(); ++I)
    D.str(F.arg(I)->name(), static_cast<uint32_t>(F.arg(I)->type()));
  for (const auto &BB : F.blocks()) {
    D.str(BB->name(), static_cast<uint32_t>(BB->size()));
    for (const auto &I : BB->instructions()) {
      D.word(static_cast<uint64_t>(I->opcode()) |
             static_cast<uint64_t>(I->type()) << 8 |
             static_cast<uint64_t>(I->pred()) << 16 |
             static_cast<uint64_t>(I->allocaWords()) << 32);
      D.str(I->name(), static_cast<uint32_t>(I->numOperands()));
      for (const Value *Op : I->operands())
        hashOperand(D, Locals, Op);
    }
  }
}

} // namespace

StateHash Module::hash() const {
  WordDigest D;
  D.str(Name, static_cast<uint32_t>(Globals.size()));
  for (const auto &G : Globals)
    D.str(G->name(), G->sizeWords());
  D.word(Funcs.size());
  LocalIndex Locals;
  for (const auto &F : Funcs)
    hashFunction(D, Locals, *F);
  return D.finish();
}
