//===- tests/util_test.cpp - Foundation utility tests ----------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "util/LruCache.h"
#include "util/Rng.h"
#include "util/Stats.h"
#include "util/Status.h"
#include "util/StringUtils.h"
#include "util/ThreadPool.h"
#include "util/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

using namespace compiler_gym;

namespace {

// -- Status ---------------------------------------------------------------------

TEST(Status, OkAndFailureBasics) {
  Status Ok;
  EXPECT_TRUE(Ok.isOk());
  EXPECT_EQ(Ok.toString(), "OK");

  Status Err = notFound("missing thing");
  EXPECT_FALSE(Err.isOk());
  EXPECT_EQ(Err.code(), StatusCode::NotFound);
  EXPECT_EQ(Err.toString(), "NOT_FOUND: missing thing");
}

TEST(Status, AllCodesHaveNames) {
  for (int Code = 0; Code <= static_cast<int>(StatusCode::Aborted); ++Code)
    EXPECT_STRNE(statusCodeName(static_cast<StatusCode>(Code)), "UNKNOWN");
}

StatusOr<int> parsePositive(int X) {
  if (X <= 0)
    return invalidArgument("not positive");
  return X;
}

Status usesAssignOrReturn(int X, int &Out) {
  CG_ASSIGN_OR_RETURN(int Value, parsePositive(X));
  CG_ASSIGN_OR_RETURN(int Doubled, parsePositive(Value * 2));
  Out = Doubled;
  return Status::ok();
}

TEST(Status, AssignOrReturnPropagates) {
  int Out = 0;
  EXPECT_TRUE(usesAssignOrReturn(21, Out).isOk());
  EXPECT_EQ(Out, 42);
  Status Err = usesAssignOrReturn(-1, Out);
  ASSERT_FALSE(Err.isOk());
  EXPECT_EQ(Err.code(), StatusCode::InvalidArgument);
}

TEST(StatusOr, TakeValueMoves) {
  StatusOr<std::string> S(std::string("payload"));
  ASSERT_TRUE(S.isOk());
  std::string Out = S.takeValue();
  EXPECT_EQ(Out, "payload");
}

// -- LruCache -------------------------------------------------------------------

using IntLru = util::LruCache<int>;

std::shared_ptr<const int> boxed(int V) { return std::make_shared<const int>(V); }

TEST(LruCache, HitPromotesEntry) {
  IntLru Cache(/*MaxEntries=*/2);
  Cache.insert(1, boxed(10));
  Cache.insert(2, boxed(20));
  auto Hit = Cache.get(1); // 2 is now the least recently used.
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(*Hit, 10);
  EXPECT_EQ(Cache.get(7), nullptr);
  EXPECT_EQ(Cache.insert(3, boxed(30)).Evicted, 1u);
  EXPECT_NE(Cache.get(1), nullptr);
  EXPECT_EQ(Cache.get(2), nullptr);
  EXPECT_NE(Cache.get(3), nullptr);
}

TEST(LruCache, SecondInsertKeepsFirstValue) {
  IntLru Cache(/*MaxEntries=*/4, /*MaxBytes=*/100);
  auto First = Cache.insert(1, boxed(10), 8);
  EXPECT_EQ(*First.Value, 10);
  EXPECT_EQ(First.Evicted, 0u);
  // Two workers that missed the same key both insert: one entry, and the
  // second gets the first value back.
  auto Second = Cache.insert(1, boxed(99), 8);
  EXPECT_EQ(Second.Value, First.Value);
  EXPECT_EQ(Second.Evicted, 0u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytes(), 8u);
  // The repeated insert left no stale entry behind to evict the live one.
  for (int K = 2; K <= 4; ++K)
    Cache.insert(K, boxed(K), 8);
  EXPECT_EQ(Cache.size(), 4u);
  EXPECT_EQ(*Cache.get(1), 10);
}

TEST(LruCache, EntryBoundEvictsLeastRecentlyUsedFirst) {
  IntLru Cache(/*MaxEntries=*/3);
  for (int K = 1; K <= 3; ++K)
    EXPECT_EQ(Cache.insert(K, boxed(K)).Evicted, 0u);
  // Re-inserting 1 promotes it, like a hit: 2 is now the oldest.
  Cache.insert(1, boxed(1));
  EXPECT_EQ(Cache.insert(4, boxed(4)).Evicted, 1u);
  EXPECT_EQ(Cache.get(2), nullptr);
  EXPECT_EQ(Cache.insert(5, boxed(5)).Evicted, 1u);
  EXPECT_EQ(Cache.get(3), nullptr);
  EXPECT_EQ(Cache.size(), 3u);
  for (int K : {1, 4, 5})
    EXPECT_NE(Cache.get(K), nullptr) << K;
}

TEST(LruCache, ByteBoundEvictsAndKeepsOversizedEntryAlone) {
  IntLru Cache(/*MaxEntries=*/10, /*MaxBytes=*/100);
  for (int K = 1; K <= 4; ++K)
    Cache.insert(K, boxed(K), 30);
  // 120 bytes inserted: the oldest entry went to fit the 100-byte budget.
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.bytes(), 90u);
  EXPECT_EQ(Cache.get(1), nullptr);
  // An entry larger than the whole budget evicts every other one and is
  // kept as the only entry.
  auto Big = Cache.insert(9, boxed(9), 150);
  EXPECT_EQ(Big.Evicted, 3u);
  EXPECT_EQ(*Big.Value, 9);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytes(), 150u);
  ASSERT_NE(Cache.get(9), nullptr);
  // The next insert evicts it.
  EXPECT_EQ(Cache.insert(10, boxed(10), 10).Evicted, 1u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytes(), 10u);
}

TEST(LruCache, ClearZeroesBothCounts) {
  IntLru Cache(/*MaxEntries=*/4, /*MaxBytes=*/100);
  Cache.insert(1, boxed(1), 40);
  Cache.insert(2, boxed(2), 40);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.bytes(), 0u);
  EXPECT_EQ(Cache.get(1), nullptr);
  // Usable again, at the full budget.
  Cache.insert(3, boxed(3), 100);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytes(), 100u);
}

// -- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  Rng A2(42);
  for (int I = 0; I < 100; ++I)
    Differs |= A2.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(Rng, BoundedStaysInRange) {
  Rng Gen(7);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(Gen.bounded(13), 13u);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = Gen.range(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng Gen(11);
  std::vector<int> Counts(8, 0);
  const int N = 80000;
  for (int I = 0; I < N; ++I)
    ++Counts[Gen.bounded(8)];
  for (int C : Counts) {
    EXPECT_GT(C, N / 8 * 0.9);
    EXPECT_LT(C, N / 8 * 1.1);
  }
}

TEST(Rng, GaussianMoments) {
  Rng Gen(5);
  double Sum = 0, SumSq = 0;
  const int N = 50000;
  for (int I = 0; I < N; ++I) {
    double X = Gen.gaussian();
    Sum += X;
    SumSq += X * X;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.02);
  EXPECT_NEAR(SumSq / N, 1.0, 0.03);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng Gen(3);
  std::vector<double> Weights = {1.0, 0.0, 3.0};
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I < 40000; ++I)
    ++Counts[Gen.weightedIndex(Weights)];
  EXPECT_EQ(Counts[1], 0);
  EXPECT_NEAR(static_cast<double>(Counts[2]) / Counts[0], 3.0, 0.25);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng Gen(9);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> Orig = V;
  Gen.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng A(1);
  Rng Child = A.split();
  bool Differs = false;
  for (int I = 0; I < 50; ++I)
    Differs |= A.next() != Child.next();
  EXPECT_TRUE(Differs);
}

// -- Stats ----------------------------------------------------------------------

TEST(Stats, Percentiles) {
  std::vector<double> V = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({3.0}, 99), 3.0);
}

TEST(Stats, MeanStddevGeomean) {
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
  EXPECT_NEAR(stddev({2, 4, 6}), std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 1.0);
  // Non-positive values are floored, not NaN.
  EXPECT_GT(geomean({0.0, 1.0}), 0.0);
}

TEST(Stats, LatencySummary) {
  LatencySummary S = summarizeLatencies({1, 2, 3, 4, 100});
  EXPECT_EQ(S.Count, 5u);
  EXPECT_DOUBLE_EQ(S.P50, 3.0);
  EXPECT_GT(S.P99, 4.0);
  EXPECT_DOUBLE_EQ(S.Mean, 22.0);
}

TEST(Stats, RunningStatMatchesBatch) {
  RunningStat R;
  std::vector<double> V = {1.5, -2.0, 7.25, 0.0, 3.5};
  for (double X : V)
    R.add(X);
  EXPECT_EQ(R.count(), V.size());
  EXPECT_NEAR(R.mean(), mean(V), 1e-12);
  EXPECT_NEAR(R.stddev(), stddev(V), 1e-9);
  EXPECT_DOUBLE_EQ(R.min(), -2.0);
  EXPECT_DOUBLE_EQ(R.max(), 7.25);
}

TEST(Stats, GaussianFilterSmoothsAndPreservesConstants) {
  std::vector<double> Flat(20, 5.0);
  std::vector<double> Smoothed = gaussianFilter1d(Flat, 2.0);
  for (double X : Smoothed)
    EXPECT_NEAR(X, 5.0, 1e-9);
  // A spike is spread out.
  std::vector<double> Spike(21, 0.0);
  Spike[10] = 10.0;
  std::vector<double> Out = gaussianFilter1d(Spike, 2.0);
  EXPECT_LT(Out[10], 10.0);
  EXPECT_GT(Out[8], 0.0);
}

TEST(Stats, EmpiricalCdf) {
  std::vector<double> Sorted = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(empiricalCdf(Sorted, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(empiricalCdf(Sorted, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(empiricalCdf(Sorted, 9.0), 1.0);
}

// -- Strings ---------------------------------------------------------------------

TEST(StringUtils, SplitJoinTrim) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(joinStrings({"x", "y"}, "--"), "x--y");
  EXPECT_EQ(trimString("  hi \n"), "hi");
  EXPECT_EQ(trimString(" \t "), "");
}

// -- ThreadPool -------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllJobs) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPoolTest, FuturesComplete) {
  ThreadPool Pool(2);
  std::atomic<int> Value{0};
  auto F = Pool.submit([&Value] { Value.store(7); });
  F.wait();
  EXPECT_EQ(Value.load(), 7);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  Pool.submit([&] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 1);
  Pool.submit([&] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 2);
}

// -- Timer -----------------------------------------------------------------------

TEST(Timer, StopwatchAdvances) {
  Stopwatch Watch;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink += I;
  EXPECT_GT(Watch.elapsedUs(), 0.0);
  double Before = Watch.elapsedMs();
  Watch.restart();
  EXPECT_LE(Watch.elapsedMs(), Before + 1.0);
}

TEST(Timer, ScopedLatencySampleAppends) {
  std::vector<double> Sink;
  {
    ScopedLatencySample Sample(Sink);
  }
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_GE(Sink[0], 0.0);
}

} // namespace
