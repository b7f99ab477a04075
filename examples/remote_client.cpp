//===- examples/remote_client.cpp - Episode over a socket -------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quickstart episode, but against a remote endpoint: dial a gateway
/// (or a bare NetServer-fronted service) over a Unix-domain or TCP
/// socket and run a random phase-ordering episode. The environment API is
/// identical to the in-process one — only the construction differs:
/// CompilerEnv::connect() with a SocketTransport instead of core::make().
///
/// Start the server half first: example_serve_gateway
///
/// Usage: remote_client [address] [tenant-token] [benchmark-uri] [steps]
///
//===----------------------------------------------------------------------===//

#include "core/CompilerEnv.h"
#include "core/Registry.h"
#include "net/SocketTransport.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Rng.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace compiler_gym;

int main(int argc, char **argv) {
  const char *Spec = argc > 1 ? argv[1] : "unix:/tmp/cg_gateway.sock";
  const std::string Token = argc > 2 ? argv[2] : "alice";
  const std::string Benchmark =
      argc > 3 ? argv[3] : "benchmark://cbench-v1/qsort";
  const int Steps = argc > 4 ? std::atoi(argv[4]) : 20;

  auto Addr = net::NetAddress::parse(Spec);
  if (!Addr.isOk()) {
    std::fprintf(stderr, "bad address '%s': %s\n", Spec,
                 Addr.status().toString().c_str());
    return 1;
  }

  // Resolve the same environment/benchmark options core::make() would
  // use, then attach them to a socket channel instead of an in-process
  // service. The benchmark's IR travels to the server in StartSession.
  core::MakeOptions MO;
  MO.Benchmark = Benchmark;
  MO.ObservationSpace = "Autophase";
  MO.RewardSpace = "IrInstructionCount";
  auto Opts = core::resolveMakeOptions("llvm-v0", MO);
  if (!Opts.isOk()) {
    std::fprintf(stderr, "resolve failed: %s\n",
                 Opts.status().toString().c_str());
    return 1;
  }
  Opts->Client.AuthToken = Token;
  auto Env = core::CompilerEnv::connect(
      *Opts, std::make_shared<net::SocketTransport>(*Addr));
  if (!Env.isOk()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 Env.status().toString().c_str());
    return 1;
  }

  auto Observation = (*Env)->reset();
  if (!Observation.isOk()) {
    std::fprintf(stderr, "reset failed: %s\n",
                 Observation.status().toString().c_str());
    return 1;
  }
  std::printf("connected:    %s (tenant '%s')\n", Spec, Token.c_str());
  std::printf("benchmark:    %s\n", Benchmark.c_str());
  std::printf("action space: %zu passes\n", (*Env)->actionSpace().size());

  Rng Gen(0xBEEF);
  double Cumulative = 0.0;
  for (int I = 0; I < Steps; ++I) {
    int Action = static_cast<int>(Gen.bounded((*Env)->actionSpace().size()));
    auto Result = (*Env)->step(Action);
    if (!Result.isOk()) {
      std::fprintf(stderr, "step failed: %s\n",
                   Result.status().toString().c_str());
      return 1;
    }
    Cumulative += Result->Reward;
    std::printf("step %3d  %-24s reward %+8.4f  total %+8.4f\n", I + 1,
                (*Env)->actionSpace().ActionNames[Action].c_str(),
                Result->Reward, Cumulative);
  }
  // This env is the only client in the process, so the process-wide
  // series are its own counts.
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  std::printf(
      "episode reward: %+.4f (%llu RPC retries, %llu recoveries)\n",
      (*Env)->episodeReward(),
      static_cast<unsigned long long>(
          Metrics.counter("cg_client_retries_total").value()),
      static_cast<unsigned long long>(
          Metrics.counter("cg_env_recoveries_total").value()));
  return 0;
}
