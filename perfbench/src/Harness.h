//===- perfbench/src/Harness.h - Benchmark harness primitives ---*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the repository benchmark: the run configuration, the
/// per-thread Recorder that times every public library call the benchmark
/// makes (and, in traced runs, keeps a span for it), the recorded episodes
/// the correctness replay re-executes, and a diff of the process-wide
/// metrics registry across the timed phase.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "telemetry/MetricsRegistry.h"
#include "util/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using compiler_gym::Status;
using compiler_gym::StatusOr;

/// Microseconds on the steady clock since the first call in this process.
double nowUs();

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory (inside the checkout) for the socket and the span dump.
  std::string OutDir = ".bench_build/perfbench-out";
  /// Threads for the post-timing correctness replay.
  int ReplayThreads = 4;
  std::string SourceId = "unknown";
  std::string GitSha = "none";
  std::string BuildType = "unknown";
};

/// One span around a public call the benchmark made.
struct Span {
  const char *Name;
  double StartUs = 0;
  double EndUs = 0;
  int64_t Parent = -1; ///< Index into the same recorder's spans; -1 = root.
  int64_t Episode = -1;
};

/// An episode as the system under test reported it. The correctness replay
/// re-runs Actions on a freshly parsed module and compares.
struct Episode {
  int64_t Id = 0;
  std::string Uri;
  std::vector<int> Actions;
  std::vector<int64_t> Autophase;
  std::vector<int64_t> InstCount;
  int64_t IrInstructionCount = 0;
  double Reward = 0;
};

inline const Status &statusOf(const Status &S) { return S; }
template <typename T> const Status &statusOf(const StatusOr<T> &S) {
  return S.status();
}

/// Per-thread record of everything the benchmark timed. Not thread-safe:
/// each load thread owns one.
class Recorder {
public:
  /// Traced runs: keep spans, and split step latencies by whether the
  /// episode recorded spans (the tracing-overhead estimate).
  bool Tracing = false;
  std::vector<Span> Spans;
  std::vector<double> StepUs, ResetUs, ForkUs, HeartbeatUs;
  std::vector<double> SpannedStepUs, UnspannedStepUs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Steps = 0;      ///< Completed env steps, candidates' included.
  uint64_t Candidates = 0; ///< Candidate evaluations (see README).
  std::vector<Episode> Episodes;

  /// Times \p F (returning Status or StatusOr), counts it as one attempted
  /// op, and on success appends the latency to \p Sink.
  template <typename FnT>
  auto op(const char *Name, std::vector<double> *Sink, FnT &&F)
      -> decltype(F()) {
    const double T0 = nowUs();
    auto R = F();
    const double T1 = nowUs();
    ++Attempted;
    if (!R.isOk())
      noteFailure(Name, statusOf(R));
    else if (Sink)
      record(*Sink, T1 - T0);
    if (SpansOn)
      Spans.push_back({Name, T0, T1, OpenEpisodeSpan, CurrentEpisode});
    return R;
  }

  /// Brackets an episode: ops recorded in between get it as their parent.
  /// In traced runs, \p WithSpans chooses whether the episode keeps spans.
  void beginEpisode(int64_t Id, bool WithSpans);
  void endEpisode();

private:
  void record(std::vector<double> &Sink, double Us);
  void noteFailure(const char *Name, const Status &S);
  bool SpansOn = false;
  int64_t OpenEpisodeSpan = -1;
  int64_t CurrentEpisode = -1;
};

/// Counter/histogram deltas of the global metrics registry between two
/// snapshots. A series matches when it carries every label in \p Match.
class RegistryDiff {
public:
  void begin();
  void end();
  double counter(const std::string &Name,
                 const compiler_gym::telemetry::Labels &Match = {}) const;
  /// (count, sum in us) of the matching histogram series.
  std::pair<double, double>
  histogram(const std::string &Name,
            const compiler_gym::telemetry::Labels &Match = {}) const;
  /// Mean of the matching histogram series over the window; 0 when empty.
  double histogramMean(const std::string &Name,
                       const compiler_gym::telemetry::Labels &Match = {}) const;
  /// Gauge value at the end of the window.
  double gauge(const std::string &Name) const;

private:
  compiler_gym::telemetry::MetricsSnapshot Before, After;
};

/// Linear-interpolated percentile of \p Samples (0 <= Q <= 1); 0 if empty.
double percentile(std::vector<double> Samples, double Q);
double mean(const std::vector<double> &Samples);

/// FNV-1a over an action list, for input identity.
uint64_t hashActions(const std::vector<int> &Actions);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
