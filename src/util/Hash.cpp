//===- util/Hash.cpp ------------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "util/Hash.h"

#include <cstdio>

using namespace compiler_gym;

std::string StateHash::hex() const {
  char Buf[41];
  std::snprintf(Buf, sizeof(Buf), "%08x%08x%08x%08x%08x", Words[0], Words[1],
                Words[2], Words[3], Words[4]);
  return std::string(Buf, 40);
}

static bool hexNibble(char C, uint32_t &Out) {
  if (C >= '0' && C <= '9') {
    Out = static_cast<uint32_t>(C - '0');
    return true;
  }
  if (C >= 'a' && C <= 'f') {
    Out = static_cast<uint32_t>(C - 'a' + 10);
    return true;
  }
  if (C >= 'A' && C <= 'F') {
    Out = static_cast<uint32_t>(C - 'A' + 10);
    return true;
  }
  return false;
}

bool StateHash::fromHex(std::string_view Hex, StateHash &Out) {
  if (Hex.size() != 40)
    return false;
  for (int W = 0; W < 5; ++W) {
    uint32_t Word = 0;
    for (int I = 0; I < 8; ++I) {
      uint32_t Nibble;
      if (!hexNibble(Hex[W * 8 + I], Nibble))
        return false;
      Word = (Word << 4) | Nibble;
    }
    Out.Words[W] = Word;
  }
  return true;
}

uint64_t compiler_gym::fnv1a(std::string_view Bytes) {
  uint64_t H = 0xCBF29CE484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return H;
}

uint64_t compiler_gym::hashCombine(uint64_t Seed, uint64_t Value) {
  // 64-bit variant of boost::hash_combine with a strong mixer.
  Seed ^= Value + 0x9E3779B97F4A7C15ull + (Seed << 12) + (Seed >> 4);
  Seed *= 0xFF51AFD7ED558CCDull;
  Seed ^= Seed >> 33;
  return Seed;
}
