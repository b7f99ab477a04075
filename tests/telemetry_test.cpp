//===- tests/telemetry_test.cpp - Telemetry subsystem ----------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The unified telemetry subsystem: MetricsRegistry counters/gauges/
// histograms under concurrency, Prometheus/JSON export, the span tracer
// (nesting, sampling, Chrome trace export), trace-context propagation
// through the step RPC so client and service spans stitch into one trace,
// and the log-line tagging format.

#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"

#include "core/Registry.h"
#include "envs/llvm/LlvmSession.h"
#include "runtime/EnvPool.h"
#include "util/Logging.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace compiler_gym;
using namespace compiler_gym::telemetry;

namespace {

// -- Counters / gauges ---------------------------------------------------------

TEST(MetricsCounter, ConcurrentIncrementsAreExact) {
  Counter C;
  constexpr int NumThreads = 8;
  constexpr uint64_t IncsPerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&C] {
      for (uint64_t I = 0; I < IncsPerThread; ++I)
        C.inc();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), NumThreads * IncsPerThread);
}

TEST(MetricsCounter, SnapshotDuringWritesIsMonotone) {
  // value() merged mid-traffic never exceeds the writes issued so far and
  // never goes backwards (the property stats scrapers rely on). Runs under
  // the TSan job too, which is the real assertion here.
  Counter C;
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    while (!Stop.load(std::memory_order_relaxed))
      C.inc();
  });
  uint64_t Prev = 0;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = C.value();
    EXPECT_GE(V, Prev);
    Prev = V;
  }
  Stop.store(true);
  Writer.join();
}

TEST(MetricsGauge, SetAndAdd) {
  Gauge G;
  G.set(7);
  EXPECT_EQ(G.value(), 7);
  G.add(-3);
  EXPECT_EQ(G.value(), 4);
}

// -- Histogram -----------------------------------------------------------------

TEST(MetricsHistogram, BucketBoundaries) {
  Histogram H;
  // Bucket I covers (2^(I-1), 2^I] microseconds; values at the bound land
  // in the lower bucket, values one past it in the next.
  H.observeUs(0);    // -> bucket 0 (<= 1us)
  H.observeUs(1);    // -> bucket 0
  H.observeUs(2);    // -> bucket 1 (<= 2us)
  H.observeUs(3);    // -> bucket 2 (<= 4us)
  H.observeUs(4);    // -> bucket 2
  H.observeUs(5);    // -> bucket 3 (<= 8us)
  H.observeUs(1024); // -> bucket 10
  H.observeUs(1025); // -> bucket 11
  H.observeUs(1e12); // far past the last finite bound -> +Inf bucket
  auto Counts = H.bucketCounts();
  EXPECT_EQ(Counts[0], 2u);
  EXPECT_EQ(Counts[1], 1u);
  EXPECT_EQ(Counts[2], 2u);
  EXPECT_EQ(Counts[3], 1u);
  EXPECT_EQ(Counts[10], 1u);
  EXPECT_EQ(Counts[11], 1u);
  EXPECT_EQ(Counts[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(H.count(), 9u);
  EXPECT_DOUBLE_EQ(H.sumUs(), 0 + 1 + 2 + 3 + 4 + 5 + 1024 + 1025 + 1e12);

  EXPECT_EQ(Histogram::bucketUpperBoundUs(0), 1u);
  EXPECT_EQ(Histogram::bucketUpperBoundUs(10), 1024u);
  EXPECT_EQ(Histogram::bucketUpperBoundUs(Histogram::kBuckets - 1),
            UINT64_MAX);
}

TEST(MetricsHistogram, ConcurrentObservesAreExact) {
  Histogram H;
  constexpr int NumThreads = 4;
  constexpr int ObsPerThread = 10000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&H] {
      for (int I = 0; I < ObsPerThread; ++I)
        H.observeUs(static_cast<double>(I % 100));
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(H.count(), static_cast<uint64_t>(NumThreads) * ObsPerThread);
}

// -- Registry ------------------------------------------------------------------

TEST(MetricsRegistryTest, SeriesIdentityAndStableRefs) {
  MetricsRegistry R;
  Counter &A = R.counter("test_total", {{"k", "a"}}, "help");
  Counter &B = R.counter("test_total", {{"k", "b"}});
  Counter &A2 = R.counter("test_total", {{"k", "a"}});
  EXPECT_EQ(&A, &A2); // Same (name, labels) -> same series.
  EXPECT_NE(&A, &B);  // Different labels -> distinct series.
  A.inc(3);
  B.inc(5);
  MetricsSnapshot Snap = R.snapshot();
  ASSERT_EQ(Snap.Counters.size(), 2u);
  EXPECT_EQ(Snap.Counters[0].Value, 3u);
  EXPECT_EQ(Snap.Counters[1].Value, 5u);
}

TEST(MetricsRegistryTest, DisabledRegistrySilencesOwnedMetrics) {
  MetricsRegistry R;
  Counter &C = R.counter("gated_total");
  Histogram &H = R.histogram("gated_us");
  C.inc();
  H.observeUs(5);
  R.setEnabled(false);
  C.inc(100);
  H.observeUs(5);
  R.setEnabled(true);
  EXPECT_EQ(C.value(), 1u);
  EXPECT_EQ(H.count(), 1u);
}

TEST(MetricsRegistryTest, PrometheusRender) {
  MetricsRegistry R;
  R.counter("cg_test_requests_total", {{"kind", "step"}}, "Requests").inc(4);
  R.gauge("cg_test_live", {}, "Live sessions").set(2);
  Histogram &H = R.histogram("cg_test_latency_us", {}, "Latency");
  H.observeUs(1);
  H.observeUs(3);
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("# HELP cg_test_requests_total Requests"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE cg_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("cg_test_requests_total{kind=\"step\"} 4"),
            std::string::npos);
  EXPECT_NE(Text.find("cg_test_live 2"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE cg_test_latency_us histogram"),
            std::string::npos);
  // Cumulative buckets: the 1us sample counts in every le >= 1.
  EXPECT_NE(Text.find("cg_test_latency_us_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("cg_test_latency_us_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("cg_test_latency_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("cg_test_latency_us_count 2"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonRender) {
  MetricsRegistry R;
  R.counter("c_total", {{"a", "b"}}).inc(9);
  R.histogram("h_us").observeUs(2);
  std::string Json = R.renderJson();
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"c_total\""), std::string::npos);
  EXPECT_NE(Json.find("\"a\":\"b\""), std::string::npos);
  EXPECT_NE(Json.find("\"value\":9"), std::string::npos);
  EXPECT_NE(Json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(Json.find("\"count\":1"), std::string::npos);
}

// -- Tracer --------------------------------------------------------------------

/// Restores the global tracer to its default (disabled, sample-all,
/// empty) state on scope exit so tests cannot leak tracing into each
/// other.
struct TracerReset {
  TracerReset() { reset(); }
  ~TracerReset() { reset(); }
  static void reset() {
    Tracer &T = Tracer::global();
    T.setEnabled(false);
    T.setSampleEveryN(1);
    T.clear();
  }
};

const SpanRecord *findSpan(const std::vector<SpanRecord> &Spans,
                           const std::string &Name) {
  auto It = std::find_if(Spans.begin(), Spans.end(),
                         [&](const SpanRecord &S) { return S.Name == Name; });
  return It == Spans.end() ? nullptr : &*It;
}

TEST(Trace, NestedSpansShareTraceAndParentChain) {
  TracerReset Guard;
  Tracer::global().setEnabled(true);
  {
    SpanScope Root("root", "test");
    ASSERT_TRUE(Root.active());
    TraceContext Ctx = currentTraceContext();
    EXPECT_EQ(Ctx.TraceId, Root.traceId());
    EXPECT_EQ(Ctx.SpanId, Root.spanId());
    {
      SpanScope Child("child", "test");
      ASSERT_TRUE(Child.active());
      EXPECT_EQ(Child.traceId(), Root.traceId());
    }
  }
  // Context restored after the scopes close.
  EXPECT_EQ(currentTraceContext().TraceId, 0u);

  std::vector<SpanRecord> Spans = Tracer::global().snapshotSpans();
  ASSERT_EQ(Spans.size(), 2u);
  const SpanRecord *Root = findSpan(Spans, "root");
  const SpanRecord *Child = findSpan(Spans, "child");
  ASSERT_NE(Root, nullptr);
  ASSERT_NE(Child, nullptr);
  EXPECT_EQ(Root->ParentId, 0u);
  EXPECT_EQ(Child->ParentId, Root->SpanId);
  EXPECT_EQ(Child->TraceId, Root->TraceId);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  TracerReset Guard;
  {
    SpanScope S("never", "test");
    EXPECT_FALSE(S.active());
  }
  EXPECT_EQ(Tracer::global().spanCount(), 0u);
  EXPECT_EQ(currentTraceContext().TraceId, 0u);
}

TEST(Trace, SamplingSuppressesWholeTraces) {
  TracerReset Guard;
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  T.setSampleEveryN(2);
  for (int I = 0; I < 10; ++I) {
    SpanScope Root("root", "test");
    // Children of an unsampled root must be suppressed too, so sampled
    // traces are always complete.
    SpanScope Child("child", "test");
    EXPECT_EQ(Child.active(), Root.active());
  }
  std::vector<SpanRecord> Spans = T.snapshotSpans();
  size_t Roots = 0, Children = 0;
  for (const SpanRecord &S : Spans)
    (S.Name == "root" ? Roots : Children)++;
  EXPECT_EQ(Roots, 5u);
  EXPECT_EQ(Children, 5u);
}

TEST(Trace, BindingAdoptsWireContext) {
  TracerReset Guard;
  Tracer::global().setEnabled(true);
  constexpr uint64_t WireTrace = 0xABCD;
  constexpr uint64_t WireSpan = 0x1234;
  {
    TraceBinding Bind(WireTrace, WireSpan);
    SpanScope S("service.work", "test");
    ASSERT_TRUE(S.active());
    EXPECT_EQ(S.traceId(), WireTrace);
  }
  EXPECT_EQ(currentTraceContext().TraceId, 0u);
  std::vector<SpanRecord> Spans = Tracer::global().snapshotSpans();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].TraceId, WireTrace);
  EXPECT_EQ(Spans[0].ParentId, WireSpan);
}

TEST(Trace, BindingWithZeroTraceSuppresses) {
  TracerReset Guard;
  Tracer::global().setEnabled(true);
  {
    // A request from a non-tracing client must not start a disconnected
    // service-side trace.
    TraceBinding Bind(0, 0);
    SpanScope S("service.work", "test");
    EXPECT_FALSE(S.active());
  }
  EXPECT_EQ(Tracer::global().spanCount(), 0u);
}

TEST(Trace, CapacityBoundsBufferAndCountsDrops) {
  TracerReset Guard;
  Tracer &T = Tracer::global();
  T.setEnabled(true);
  T.setCapacity(4);
  uint64_t DroppedBefore = T.droppedSpans();
  for (int I = 0; I < 10; ++I)
    SpanScope S("s", "test");
  EXPECT_EQ(T.spanCount(), 4u);
  EXPECT_EQ(T.droppedSpans() - DroppedBefore, 6u);
  T.setCapacity(size_t{1} << 18);
}

TEST(Trace, ChromeTraceExportRoundTrip) {
  TracerReset Guard;
  Tracer::global().setEnabled(true);
  uint64_t TraceId, SpanId;
  {
    SpanScope Root("outer", "client");
    SpanScope Child("inner", "service");
    TraceId = Root.traceId();
    SpanId = Root.spanId();
  }
  std::string Json = Tracer::global().exportChromeTrace();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"service\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  // Ids ride in args as hex strings; the child's parent is the root span.
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "0x%llx",
           static_cast<unsigned long long>(TraceId));
  EXPECT_NE(Json.find(std::string("\"trace\":\"") + Buf + "\""),
            std::string::npos);
  snprintf(Buf, sizeof(Buf), "0x%llx", static_cast<unsigned long long>(SpanId));
  EXPECT_NE(Json.find(std::string("\"parent\":\"") + Buf + "\""),
            std::string::npos);
}

// -- Log tagging ---------------------------------------------------------------

TEST(Logging, FormatLine) {
  EXPECT_EQ(formatLogLine(LogLevel::Info, "env", 3, 0x1f2, "replaying"),
            "[compiler_gym INFO env id=3 trace=0x1f2] replaying");
  // Id 0 and trace 0 are omitted; no component falls back to the legacy
  // format.
  EXPECT_EQ(formatLogLine(LogLevel::Warning, "broker", 0, 0, "shard down"),
            "[compiler_gym WARN broker] shard down");
  EXPECT_EQ(formatLogLine(LogLevel::Error, nullptr, 0, 0, "boom"),
            "[compiler_gym ERROR] boom");
}

TEST(Logging, TraceIdProviderLinksLogsToActiveSpan) {
  TracerReset Guard;
  Tracer::global().setEnabled(true);
  SpanScope S("scope", "test");
  ASSERT_TRUE(S.active());
  // The telemetry layer installed its provider in Tracer's constructor;
  // an active span's trace id must show up in tagged lines.
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "0x%llx",
           static_cast<unsigned long long>(S.traceId()));
  EXPECT_EQ(formatLogLine(LogLevel::Info, "env", 1, S.traceId(), "x"),
            std::string("[compiler_gym INFO env id=1 trace=") + Buf + "] x");
}

// -- End-to-end: spans and metrics through a real step RPC ---------------------

core::MakeOptions plainLlvm(const std::string &Benchmark) {
  core::MakeOptions Opts;
  Opts.Benchmark = Benchmark;
  Opts.ObservationSpace = "Autophase";
  Opts.RewardSpace = "none";
  return Opts;
}

TEST(TraceE2E, ClientAndServiceSpansStitchThroughStepRpc) {
  TracerReset Guard;
  Tracer &T = Tracer::global();

  auto Env = core::make("llvm-v0", plainLlvm("benchmark://cbench-v1/crc32"));
  ASSERT_TRUE(Env.isOk()) << Env.status().toString();
  ASSERT_TRUE((*Env)->reset().isOk());

  T.setEnabled(true);
  T.clear();
  auto Step = (*Env)->step({0}, {"Autophase"});
  T.setEnabled(false);
  ASSERT_TRUE(Step.isOk()) << Step.status().toString();

  std::vector<SpanRecord> Spans = T.snapshotSpans();
  const SpanRecord *EnvStep = findSpan(Spans, "env.step");
  const SpanRecord *Rpc = findSpan(Spans, "rpc:step");
  const SpanRecord *Service = findSpan(Spans, "service:step");
  ASSERT_NE(EnvStep, nullptr);
  ASSERT_NE(Rpc, nullptr);
  ASSERT_NE(Service, nullptr);

  // One trace across client and service threads, stitched through the
  // envelope's propagated (trace, span) ids.
  EXPECT_EQ(EnvStep->ParentId, 0u);
  EXPECT_EQ(Rpc->TraceId, EnvStep->TraceId);
  EXPECT_EQ(Rpc->ParentId, EnvStep->SpanId);
  EXPECT_EQ(Service->TraceId, EnvStep->TraceId);
  EXPECT_EQ(Service->ParentId, Rpc->SpanId);
  EXPECT_NE(Service->ThreadId, Rpc->ThreadId); // Dispatcher thread.

  // The service-side lifecycle is visible inside the same trace: action
  // application, per-space observation, and reply encoding.
  for (const char *Name :
       {"session.apply_actions", "observe:Autophase", "encode.reply"}) {
    const SpanRecord *S = findSpan(Spans, Name);
    ASSERT_NE(S, nullptr) << Name;
    EXPECT_EQ(S->TraceId, EnvStep->TraceId) << Name;
  }
  // Applying action 0 ran a pass under the apply span.
  bool SawPass = false;
  for (const SpanRecord &S : Spans)
    SawPass |= S.Name.rfind("pass:", 0) == 0 && S.TraceId == EnvStep->TraceId;
  EXPECT_TRUE(SawPass);
}

TEST(TraceE2E, PoolStepProducesStitchedTraceAndRegistryMetrics) {
  using runtime::EnvPool;
  using runtime::EnvPoolOptions;
  using runtime::PoolStats;
  TracerReset Guard;

  EnvPoolOptions Opts;
  Opts.EnvId = "llvm-v0";
  Opts.Make.Benchmark = "benchmark://cbench-v1/crc32";
  Opts.Make.ObservationSpace = "Autophase";
  Opts.Make.RewardSpace = "IrInstructionCount";
  Opts.NumWorkers = 2;
  Opts.Broker.MonitorIntervalMs = 0;
  auto Pool = EnvPool::create(Opts);
  ASSERT_TRUE(Pool.isOk()) << Pool.status().toString();
  ASSERT_TRUE((*Pool)->resetAll().isOk());

  // stats() is documented safe concurrently with a running batch; hammer
  // it from another thread while the batch runs (the TSan job turns any
  // unsynchronized aggregate read into a failure).
  std::atomic<bool> Stop{false};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      PoolStats S = (*Pool)->stats();
      (void)S;
    }
  });
  Tracer::global().setEnabled(true);
  auto Results = (*Pool)->stepBatch({{0, 1}, {1, 2}});
  Tracer::global().setEnabled(false);
  Stop.store(true);
  Reader.join();
  ASSERT_TRUE(Results.isOk()) << Results.status().toString();

  // The vectorized step is one trace: the coordinator's pool.step_batch
  // root, each worker's env.step bound to it across the thread-pool hop,
  // and the service spans stitched below through the envelope ids.
  std::vector<SpanRecord> Spans = Tracer::global().snapshotSpans();
  const SpanRecord *Batch = findSpan(Spans, "pool.step_batch");
  ASSERT_NE(Batch, nullptr);
  EXPECT_EQ(Batch->ParentId, 0u);
  size_t WorkerSteps = 0, ServiceSteps = 0;
  for (const SpanRecord &S : Spans) {
    if (S.Name == "env.step") {
      EXPECT_EQ(S.TraceId, Batch->TraceId);
      EXPECT_EQ(S.ParentId, Batch->SpanId);
      ++WorkerSteps;
    }
    if (S.Name == "service:step") {
      EXPECT_EQ(S.TraceId, Batch->TraceId);
      ++ServiceSteps;
    }
  }
  EXPECT_EQ(WorkerSteps, 2u);
  EXPECT_EQ(ServiceSteps, 2u);

  // The acceptance-criteria metric families are live after real steps.
  std::string Text = telemetry::MetricsRegistry::global().renderPrometheus();
  for (const char *Family :
       {"cg_pool_steps_total", "cg_client_rpc_latency_us",
        "cg_service_rpc_latency_us", "cg_service_rpcs_total",
        "cg_wire_bytes_total", "cg_obs_cache_events_total",
        "cg_service_observation_replies_total", "cg_feature_requests_total",
        "cg_broker_shard_restarts_total"})
    EXPECT_NE(Text.find(Family), std::string::npos) << Family;
}

} // namespace
