//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload (see Workloads.h), replays every recorded episode
/// against the ir/passes/analysis layers to check the results, and prints a
/// report followed by one JSON line: the end-to-end metrics (untraced run)
/// or the per-layer metrics (traced run). Exits non-zero without a JSON
/// line when the run completed no ops or set-up failed.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Replay.h"
#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;
namespace telemetry = compiler_gym::telemetry;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< Sample counts and ratio bases, report line only.
};

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

std::string base(double Num, double Den) {
  return fmt(Num) + "/" + fmt(Den);
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir D] [--source-id S] "
               "[--git-sha S]\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Config &C) {
  std::map<std::string, std::string> A;
  for (int I = 1; I + 1 < Argc; I += 2) {
    if (std::strncmp(Argv[I], "--", 2) != 0)
      return false;
    A[Argv[I] + 2] = Argv[I + 1];
  }
  if (Argc % 2 == 0 || !A.count("workload"))
    return false;
  auto Num = [&](const char *K, double Default) {
    return A.count(K) ? std::strtod(A[K].c_str(), nullptr) : Default;
  };
  C.Workload = A["workload"];
  C.Seed = static_cast<uint64_t>(Num("seed", 1));
  C.Seconds = Num("seconds", C.Seconds);
  C.Trace = Num("trace", 0) != 0;
  if (A.count("out-dir"))
    C.OutDir = A["out-dir"];
  if (A.count("source-id"))
    C.SourceId = A["source-id"];
  if (A.count("git-sha"))
    C.GitSha = A["git-sha"];
  unsigned Cores = std::thread::hardware_concurrency();
  C.ReplayThreads = static_cast<int>(std::clamp(Cores, 1u, 4u));
  return C.Seconds > 0;
}

/// Everything the load threads recorded, merged.
struct Merged {
  std::vector<double> StepUs, ResetUs, ForkUs, HeartbeatUs;
  std::vector<double> SpannedStepUs, UnspannedStepUs;
  uint64_t Attempted = 0, Failed = 0, Steps = 0, Candidates = 0;
  std::vector<const Episode *> Episodes;
};

Merged merge(const WorkloadRun &Run) {
  Merged M;
  auto Add = [](std::vector<double> &To, const std::vector<double> &From) {
    To.insert(To.end(), From.begin(), From.end());
  };
  for (const Recorder &R : Run.Recorders) {
    Add(M.StepUs, R.StepUs);
    Add(M.ResetUs, R.ResetUs);
    Add(M.ForkUs, R.ForkUs);
    Add(M.HeartbeatUs, R.HeartbeatUs);
    Add(M.SpannedStepUs, R.SpannedStepUs);
    Add(M.UnspannedStepUs, R.UnspannedStepUs);
    M.Attempted += R.Attempted;
    M.Failed += R.Failed;
    M.Steps += R.Steps;
    M.Candidates += R.Candidates;
    for (const Episode &E : R.Episodes)
      M.Episodes.push_back(&E);
  }
  std::sort(M.Episodes.begin(), M.Episodes.end(),
            [](const Episode *A, const Episode *B) { return A->Id < B->Id; });
  return M;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

std::vector<Metric> endToEnd(const WorkloadRun &Run, const Merged &M,
                             double PeakRssMb) {
  const double N = static_cast<double>(M.StepUs.size());
  const double Beyond99 = N - std::ceil(0.99 * N);
  return {
      {"setup_s", percentile(Run.SetupS, 0.5), "s",
       "median of " + std::to_string(Run.SetupS.size()) + " set-ups"},
      {"step_p50_us", percentile(M.StepUs, 0.5), "us",
       "n=" + fmt(N)},
      {"step_p99_us", percentile(M.StepUs, 0.99), "us",
       "n=" + fmt(N) + " beyond=" + fmt(Beyond99)},
      {"reset_p50_us", percentile(M.ResetUs, 0.5), "us",
       "n=" + std::to_string(M.ResetUs.size())},
      {"steps_per_s", ratio(M.Steps, Run.WallS), "1/s",
       base(M.Steps, Run.WallS)},
      {"fork_p50_us", percentile(M.ForkUs, 0.5), "us",
       "n=" + std::to_string(M.ForkUs.size())},
      {"candidates_per_s", ratio(M.Candidates, Run.WallS), "1/s",
       base(M.Candidates, Run.WallS)},
      {"peak_rss_mb", PeakRssMb, "MB",
       "getrusage ru_maxrss before the correctness replay"},
  };
}

std::vector<Metric> perLayer(const WorkloadRun &Run, const Merged &M,
                             const ReplayResult &Rep) {
  const RegistryDiff &G = Run.Registry;
  const telemetry::Labels StepKind = {{"kind", "step"}};
  const double Steps = static_cast<double>(M.Steps);
  const double StepMean = mean(M.StepUs);
  const double ClientRpc = G.histogramMean("cg_client_rpc_latency_us", StepKind);
  const double Handle = G.histogramMean("cg_service_rpc_latency_us", StepKind);
  const double Wire = G.counter("cg_wire_bytes_total");
  const double Delta = G.counter("cg_service_observation_replies_total",
                                 {{"encoding", "delta"}});
  const double Full = G.counter("cg_service_observation_replies_total",
                                {{"encoding", "full"}});
  const double Retries = G.counter("cg_client_retries_total") +
                         G.counter("cg_client_backpressure_retries_total");
  const double Rpcs = G.counter("cg_client_rpcs_total");
  const double NetBytes = G.counter("cg_net_bytes_total");
  const double NetFrames = G.counter("cg_net_frames_total");
  const double CacheHit =
      G.counter("cg_obs_cache_events_total", {{"event", "hit"}});
  const double CacheMiss =
      G.counter("cg_obs_cache_events_total", {{"event", "miss"}});
  const double Memo = G.counter("cg_session_obs_memo_hits_total");
  const double PassRuns = G.counter("cg_passes_run_total");
  const double Lookups = G.counter("cg_analysis_lookups_total");
  const double LookupHits =
      G.counter("cg_analysis_lookups_total", {{"outcome", "hit"}});
  const double DomAll = G.counter("cg_domtree_updates_total");
  const double DomInc =
      G.counter("cg_domtree_updates_total", {{"kind", "incremental"}});
  const double FeatReq = G.counter("cg_feature_requests_total");
  const double FeatRecompute = G.counter("cg_feature_recomputes_total");
  const double SnapAll = G.counter("cg_snapshot_store_hits_total");
  const double SnapHit =
      G.counter("cg_snapshot_store_hits_total", {{"outcome", "hit"}});
  std::vector<double> Resolve = Run.ResolveUs;
  Resolve.insert(Resolve.end(), Rep.ResolveUs.begin(), Rep.ResolveUs.end());

  std::map<std::string, double> Observe = {
      {"Autophase", mean(Rep.AutophaseUs)},
      {"InstCount", mean(Rep.InstCountUs)},
      {"Programl", mean(Rep.ProgramlUs)},
      {"Inst2vec", mean(Rep.Inst2vecUs)}};
  const double PassRun = mean(Rep.PassRunUs);
  const double RunsPerStep = ratio(PassRuns, Steps);
  double Explained = mean(M.HeartbeatUs) + PassRun * RunsPerStep;
  std::string Spaces;
  for (const std::string &S : Run.StepSpaces) {
    Explained += Observe[S];
    Spaces += " +" + S;
  }

  std::vector<Metric> Out = {
      {"core.step_self_us", StepMean - ClientRpc, "us",
       "env.step mean " + fmt(StepMean) + " - client step rpc mean " +
           fmt(ClientRpc)},
      {"core.fork_us", G.histogramMean("cg_env_fork_latency_us"), "us",
       "n=" + fmt(G.histogram("cg_env_fork_latency_us").first)},
      {"service.client_rpc_us", ClientRpc, "us",
       "n=" + fmt(G.histogram("cg_client_rpc_latency_us", StepKind).first)},
      {"service.handle_us", Handle, "us",
       "n=" + fmt(G.histogram("cg_service_rpc_latency_us", StepKind).first)},
      {"service.wire_bytes_per_step", ratio(Wire, Steps), "B",
       base(Wire, Steps)},
      {"service.delta_reply_share", ratio(Delta, Delta + Full), "ratio",
       base(Delta, Delta + Full)},
      {"service.retries_per_op", ratio(Retries, Rpcs), "ratio",
       base(Retries, Rpcs)},
      {"net.hop_us", ClientRpc - Handle, "us", "client rpc - service handle"},
      {"net.heartbeat_us", mean(M.HeartbeatUs), "us",
       "n=" + std::to_string(M.HeartbeatUs.size())},
      {"net.bytes_per_step", ratio(NetBytes, Steps), "B",
       base(NetBytes, Steps)},
      {"net.frames_per_step", ratio(NetFrames, Steps), "ratio",
       base(NetFrames, Steps)},
      {"gateway.rejected", G.counter("cg_gateway_rejected_total"), "count",
       ""},
      {"gateway.dispatched", G.counter("cg_gateway_dispatched_total"),
       "count", ""},
      {"runtime.pool_queue_wait_us", G.histogramMean("cg_pool_queue_wait_us"),
       "us", "n=" + fmt(G.histogram("cg_pool_queue_wait_us").first)},
      {"runtime.obs_cache_hit_ratio", ratio(CacheHit, CacheHit + CacheMiss),
       "ratio", base(CacheHit, CacheHit + CacheMiss)},
      {"envs.llvm.obs_memo_hits_per_step", ratio(Memo, Steps), "ratio",
       base(Memo, Steps)},
      {"passes.run_us", PassRun, "us",
       "replay n=" + std::to_string(Rep.PassRunUs.size())},
      {"passes.runs_per_step", RunsPerStep, "ratio", base(PassRuns, Steps)},
      {"passes.analysis_hit_ratio", ratio(LookupHits, Lookups), "ratio",
       base(LookupHits, Lookups)},
      {"passes.domtree_incremental_ratio", ratio(DomInc, DomAll), "ratio",
       base(DomInc, DomAll)},
      {"analysis.observe_us.Autophase", Observe["Autophase"], "us", ""},
      {"analysis.observe_us.InstCount", Observe["InstCount"], "us", ""},
      {"analysis.observe_us.Programl", Observe["Programl"], "us", ""},
      {"analysis.observe_us.Inst2vec", Observe["Inst2vec"], "us", ""},
      {"analysis.feature_recompute_ratio", ratio(FeatRecompute, FeatReq),
       "ratio", base(FeatRecompute, FeatReq)},
      {"ir.parse_us", mean(Rep.ParseUs), "us",
       "replay n=" + std::to_string(Rep.ParseUs.size())},
      {"ir.share_us", mean(Rep.ShareUs), "us", ""},
      {"ir.clone_us", mean(Rep.CloneUs), "us", ""},
      {"ir.snapshot_hit_ratio", ratio(SnapHit, SnapAll), "ratio",
       base(SnapHit, SnapAll)},
      {"ir.snapshot_bytes", G.gauge("cg_snapshot_store_bytes"), "B",
       "at end of timed phase"},
      {"datasets.resolve_us", mean(Resolve), "us",
       "n=" + std::to_string(Resolve.size())},
      {"trace.overhead_us",
       percentile(M.SpannedStepUs, 0.5) - percentile(M.UnspannedStepUs, 0.5),
       "us",
       "step p50 with spans " + fmt(percentile(M.SpannedStepUs, 0.5)) +
           " - without " + fmt(percentile(M.UnspannedStepUs, 0.5))},
      {"trace.step_coverage", ratio(Explained, StepMean), "ratio",
       "(heartbeat + passes.run_us*runs_per_step" + Spaces + ") " +
           fmt(Explained) + " / step mean " + fmt(StepMean)},
  };
  return Out;
}

/// Writes the traced run's spans as Chrome trace-event JSON.
void writeSpans(const Config &C, const WorkloadRun &Run) {
  const std::string Path = C.OutDir + "/spans-" + C.Workload + "-" +
                           std::to_string(C.Seed) + ".json";
  std::ofstream OS(Path);
  OS << "{\"traceEvents\":[";
  bool First = true;
  for (size_t T = 0; T < Run.Recorders.size(); ++T)
    for (size_t I = 0; I < Run.Recorders[T].Spans.size(); ++I) {
      const Span &S = Run.Recorders[T].Spans[I];
      OS << (First ? "" : ",") << "{\"name\":\"" << S.Name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << T
         << ",\"ts\":" << fmt(S.StartUs)
         << ",\"dur\":" << fmt(S.EndUs - S.StartUs)
         << ",\"args\":{\"span\":" << I << ",\"parent\":" << S.Parent
         << ",\"episode\":" << S.Episode << "}}";
      First = false;
    }
  OS << "]}\n";
  std::printf("# spans written to %s\n", Path.c_str());
}

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Metrics) {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += (I ? ", " : "") + std::string("\"") + Metrics[I].Name +
           "\": {\"value\": " + fmt(Metrics[I].Value) + ", \"unit\": \"" +
           Metrics[I].Unit + "\"}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  (void)nowUs(); // Process start: the first set-up is timed from here.
  Config C;
  C.BuildType = PERFBENCH_BUILD_TYPE;
  if (!parseArgs(Argc, Argv, C))
    return usage("bad arguments");
  std::error_code Ec;
  std::filesystem::create_directories(C.OutDir, Ec);

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u build_type=%s source=%s git=%s\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0, std::thread::hardware_concurrency(),
              C.BuildType.c_str(), C.SourceId.c_str(), C.GitSha.c_str());

  StatusOr<WorkloadRun> RunOr = runWorkload(C);
  if (!RunOr.isOk()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", C.Workload.c_str(),
                 RunOr.status().toString().c_str());
    return 3;
  }
  const double PeakRssMb = peakRssMb(); // The replay below allocates too.
  const WorkloadRun &Run = *RunOr;
  Merged M = merge(Run);
  if (M.Attempted == 0 || M.Steps == 0 || M.Episodes.empty()) {
    std::fprintf(stderr,
                 "perfbench: %s completed no ops (attempted=%llu steps=%llu "
                 "episodes=%zu); no rates reported\n",
                 C.Workload.c_str(),
                 static_cast<unsigned long long>(M.Attempted),
                 static_cast<unsigned long long>(M.Steps), M.Episodes.size());
    return 4;
  }

  // Input identity: the same seed draws the same programs and actions, so
  // two runs' listings agree on their common prefix.
  uint64_t Digest = 0xcbf29ce484222325ull;
  for (const Episode *E : M.Episodes) {
    const uint64_t H = hashActions(E->Actions);
    std::printf("input episode=%lld program=%s actions=%zu actions_hash=%s\n",
                static_cast<long long>(E->Id), E->Uri.c_str(),
                E->Actions.size(), hex(H).c_str());
    Digest = (Digest ^ H) * 0x100000001b3ull;
  }
  std::printf("input episodes=%zu digest=%s\n", M.Episodes.size(),
              hex(Digest).c_str());

  // Correctness, after timing stopped.
  ReplayResult Rep =
      replayEpisodes(M.Episodes, Run.ActionNames, C.ReplayThreads, C.Trace);
  std::vector<std::string> Mismatches = Run.OnlineMismatches;
  Mismatches.insert(Mismatches.end(), Rep.Mismatches.begin(),
                    Rep.Mismatches.end());
  std::sort(Mismatches.begin(), Mismatches.end());
  for (const std::string &L : Mismatches)
    std::printf("mismatch %s\n", L.c_str());

  std::vector<Metric> Metrics =
      C.Trace ? perLayer(Run, M, Rep) : endToEnd(Run, M, PeakRssMb);
  for (const Metric &Mt : Metrics)
    std::printf("metric %s %s %s %s\n", Mt.Name.c_str(), fmt(Mt.Value).c_str(),
                Mt.Unit.c_str(), Mt.Note.c_str());
  std::printf("check failed_op_share %s (%llu failed / %llu attempted)\n",
              fmt(ratio(M.Failed, M.Attempted)).c_str(),
              static_cast<unsigned long long>(M.Failed),
              static_cast<unsigned long long>(M.Attempted));
  std::printf("check result_mismatches %zu (episodes replayed %zu, "
              "semantics checked %zu)\n",
              Mismatches.size(), Rep.Episodes, Rep.SemanticsChecked);
  if (C.Trace)
    writeSpans(C, Run);
  printJson(Mismatches.empty(), M.Attempted, M.Failed, Metrics);
  return 0;
}
