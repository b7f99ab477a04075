//===- util/Hash.h - 160-bit state hashing ----------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// StateHash: a 160-bit digest used wherever the paper uses SHA1 (state
/// identity in the State Transition Dataset, replay validation, and
/// reproducibility checks on compiler passes). ir::Module::hash() computes
/// it: not cryptographic, but stable across runs and with negligible
/// collision odds at our scale.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_UTIL_HASH_H
#define COMPILER_GYM_UTIL_HASH_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace compiler_gym {

/// A 160-bit digest that plays the role of the paper's SHA1 state_id.
struct StateHash {
  std::array<uint32_t, 5> Words = {0, 0, 0, 0, 0};

  bool operator==(const StateHash &Other) const = default;
  bool operator<(const StateHash &Other) const { return Words < Other.Words; }

  /// 40-char lowercase hex rendering.
  std::string hex() const;

  /// Parses a 40-char hex digest; returns false on malformed input.
  static bool fromHex(std::string_view Hex, StateHash &Out);

  /// Truncation to 64 bits for use as a map key.
  uint64_t low64() const {
    return (static_cast<uint64_t>(Words[0]) << 32) | Words[1];
  }
};

/// Combines two 64-bit hashes (boost-style).
uint64_t hashCombine(uint64_t Seed, uint64_t Value);

/// FNV-1a over a byte string, for cheap 64-bit keys.
uint64_t fnv1a(std::string_view Bytes);

} // namespace compiler_gym

template <> struct std::hash<compiler_gym::StateHash> {
  size_t operator()(const compiler_gym::StateHash &H) const noexcept {
    return static_cast<size_t>(H.low64());
  }
};

#endif // COMPILER_GYM_UTIL_HASH_H
