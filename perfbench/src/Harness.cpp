//===- perfbench/src/Harness.cpp - Benchmark harness primitives -----------===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace compiler_gym;

double nowUs() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Recorder::beginEpisode(int64_t Id, bool WithSpans) {
  CurrentEpisode = Id;
  SpansOn = Tracing && WithSpans;
  if (!SpansOn)
    return;
  OpenEpisodeSpan = static_cast<int64_t>(Spans.size());
  Spans.push_back({"episode", nowUs(), 0, -1, Id});
}

void Recorder::endEpisode() {
  if (OpenEpisodeSpan >= 0)
    Spans[OpenEpisodeSpan].EndUs = nowUs();
  OpenEpisodeSpan = -1;
  CurrentEpisode = -1;
  SpansOn = false;
}

void Recorder::record(std::vector<double> &Sink, double Us) {
  Sink.push_back(Us);
  if (Tracing && &Sink == &StepUs)
    (SpansOn ? SpannedStepUs : UnspannedStepUs).push_back(Us);
}

void Recorder::noteFailure(const char *Name, const Status &S) {
  ++Failed;
  // A handful is enough to diagnose; the count goes into failed_op_share.
  if (Failed <= 5)
    std::fprintf(stderr, "perfbench: %s failed (episode %lld): %s\n", Name,
                 static_cast<long long>(CurrentEpisode),
                 S.toString().c_str());
}

namespace {

bool labelsMatch(const telemetry::Labels &Have,
                 const telemetry::Labels &Want) {
  for (const auto &W : Want)
    if (std::find(Have.begin(), Have.end(), W) == Have.end())
      return false;
  return true;
}

template <typename SampleT, typename ValueFn>
double sumMatching(const std::vector<SampleT> &Series, const std::string &Name,
                   const telemetry::Labels &Match, ValueFn Value) {
  double Sum = 0;
  for (const SampleT &S : Series)
    if (S.Name == Name && labelsMatch(S.L, Match))
      Sum += Value(S);
  return Sum;
}

} // namespace

void RegistryDiff::begin() {
  Before = telemetry::MetricsRegistry::global().snapshot();
}

void RegistryDiff::end() {
  After = telemetry::MetricsRegistry::global().snapshot();
}

double RegistryDiff::counter(const std::string &Name,
                             const telemetry::Labels &Match) const {
  auto V = [](const telemetry::CounterSample &S) {
    return static_cast<double>(S.Value);
  };
  return sumMatching(After.Counters, Name, Match, V) -
         sumMatching(Before.Counters, Name, Match, V);
}

std::pair<double, double>
RegistryDiff::histogram(const std::string &Name,
                        const telemetry::Labels &Match) const {
  auto Count = [](const telemetry::HistogramSample &S) {
    return static_cast<double>(S.Count);
  };
  auto Sum = [](const telemetry::HistogramSample &S) { return S.SumUs; };
  return {sumMatching(After.Histograms, Name, Match, Count) -
              sumMatching(Before.Histograms, Name, Match, Count),
          sumMatching(After.Histograms, Name, Match, Sum) -
              sumMatching(Before.Histograms, Name, Match, Sum)};
}

double RegistryDiff::histogramMean(const std::string &Name,
                                   const telemetry::Labels &Match) const {
  auto [Count, Sum] = histogram(Name, Match);
  return Count > 0 ? Sum / Count : 0.0;
}

double RegistryDiff::gauge(const std::string &Name) const {
  return sumMatching(After.Gauges, Name, {},
                     [](const telemetry::GaugeSample &S) {
                       return static_cast<double>(S.Value);
                     });
}

double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  const double Pos = Q * static_cast<double>(Samples.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * (Pos - Lo);
}

double mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0.0;
  double Sum = 0;
  for (double S : Samples)
    Sum += S;
  return Sum / static_cast<double>(Samples.size());
}

uint64_t hashActions(const std::vector<int> &Actions) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (int A : Actions) {
    for (int B = 0; B < 4; ++B) {
      H ^= static_cast<uint64_t>((static_cast<uint32_t>(A) >> (8 * B)) & 0xff);
      H *= 0x100000001b3ull;
    }
  }
  return H;
}

} // namespace perfbench
