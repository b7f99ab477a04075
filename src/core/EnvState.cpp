//===- core/EnvState.cpp --------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/EnvState.h"

#include "util/StringUtils.h"

#include <cstdio>
#include <cstdlib>

using namespace compiler_gym;
using namespace compiler_gym::core;

std::string EnvState::serialize() const {
  char RewardBuf[32];
  std::snprintf(RewardBuf, sizeof(RewardBuf), "%.17g", CumulativeReward);
  std::string Out = EnvId + "|" + BenchmarkUri + "|" + RewardSpace + "|" +
                    ObservationSpace + "|" + RewardBuf + "|";
  for (size_t I = 0; I < Actions.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Actions[I]);
  }
  return Out;
}

StatusOr<EnvState> EnvState::deserialize(const std::string &Line) {
  std::vector<std::string> Fields = splitString(Line, '|');
  if (Fields.size() != 6)
    return invalidArgument("malformed EnvState line (need 6 '|' fields)");
  EnvState Out;
  Out.EnvId = Fields[0];
  Out.BenchmarkUri = Fields[1];
  Out.RewardSpace = Fields[2];
  Out.ObservationSpace = Fields[3];
  Out.CumulativeReward = std::strtod(Fields[4].c_str(), nullptr);
  const std::string &Acts = Fields[5];
  if (!Acts.empty()) {
    for (const std::string &Tok : splitString(Acts, ',')) {
      char *End = nullptr;
      long A = std::strtol(Tok.c_str(), &End, 10);
      if (Tok.empty() || End != Tok.c_str() + Tok.size())
        return invalidArgument("malformed action '" + Tok + "'");
      Out.Actions.push_back(static_cast<int>(A));
    }
  }
  return Out;
}
