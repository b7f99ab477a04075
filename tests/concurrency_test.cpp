//===- tests/concurrency_test.cpp - Concurrency primitives -----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The concurrency primitives the parallel runtime leans on: util::ThreadPool
// (ordering, exception propagation, shutdown-while-busy) and the
// TransitionDatabase async writer thread (no lost records on close).

#include "core/TransitionDatabase.h"
#include "util/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

using namespace compiler_gym;

namespace {

// -- ThreadPool ----------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJobExactlyOnce) {
  ThreadPool Pool(4);
  constexpr int Jobs = 200;
  std::atomic<int> Counter{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < Jobs; ++I)
    Futures.push_back(Pool.submit([&Counter] { ++Counter; }));
  for (std::future<void> &F : Futures)
    F.get();
  EXPECT_EQ(Counter.load(), Jobs);
}

TEST(ThreadPool, SingleWorkerExecutesFifo) {
  ThreadPool Pool(1);
  std::vector<int> Order;
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 50; ++I)
    Futures.push_back(Pool.submit([&Order, I] { Order.push_back(I); }));
  for (std::future<void> &F : Futures)
    F.get();
  ASSERT_EQ(Order.size(), 50u);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool Pool(2);
  std::future<void> Bad =
      Pool.submit([] { throw std::runtime_error("job failed"); });
  std::future<void> Good = Pool.submit([] {});
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // A throwing job must not take its worker down.
  Good.get();
  std::future<void> After = Pool.submit([] {});
  After.get();
}

TEST(ThreadPool, WaitBlocksUntilQueueDrains) {
  ThreadPool Pool(2);
  std::atomic<int> Done{0};
  for (int I = 0; I < 16; ++I)
    Pool.submit([&Done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++Done;
    });
  Pool.wait();
  EXPECT_EQ(Done.load(), 16);
}

TEST(ThreadPool, ShutdownWhileBusyFinishesQueuedJobs) {
  std::atomic<int> Done{0};
  constexpr int Jobs = 32;
  {
    ThreadPool Pool(2);
    for (int I = 0; I < Jobs; ++I)
      Pool.submit([&Done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++Done;
      });
    // Destructor runs with most jobs still queued.
  }
  // Workers drain the whole queue before exiting.
  EXPECT_EQ(Done.load(), Jobs);
}

TEST(ThreadPool, ConcurrentSubmittersAreSafe) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  std::vector<std::thread> Producers;
  for (int P = 0; P < 4; ++P)
    Producers.emplace_back([&Pool, &Counter] {
      std::vector<std::future<void>> Futures;
      for (int I = 0; I < 100; ++I)
        Futures.push_back(Pool.submit([&Counter] { ++Counter; }));
      for (std::future<void> &F : Futures)
        F.get();
    });
  for (std::thread &T : Producers)
    T.join();
  EXPECT_EQ(Counter.load(), 400);
}

// -- TransitionDatabase async writer -------------------------------------------

std::string tempDbDir(const char *Name) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir.string();
}

core::StepsRow stepsRow(int I) {
  core::StepsRow Row;
  Row.BenchmarkUri = "benchmark://cbench-v1/crc32";
  Row.Actions = {I, I + 1};
  Row.StateId = "state-" + std::to_string(I);
  Row.EndOfEpisode = (I % 5 == 4);
  Row.Rewards = {0.5 * I};
  return Row;
}

TEST(TransitionDatabase, CloseWithoutFlushLosesNoRecords) {
  std::string Dir = tempDbDir("cg_tdb_close_test");
  constexpr int Rows = 500;
  {
    core::TransitionDatabase Db(Dir);
    for (int I = 0; I < Rows; ++I) {
      Db.appendStep(stepsRow(I));
      core::ObservationsRow Obs;
      Obs.StateId = "state-" + std::to_string(I);
      Obs.InstCounts = {I};
      Db.appendObservation(Obs);
    }
    // No flush(): the destructor must drain the writer queue.
  }
  core::TransitionDatabase Reopened(Dir);
  auto Steps = Reopened.readSteps();
  ASSERT_TRUE(Steps.isOk()) << Steps.status().toString();
  ASSERT_EQ(Steps->size(), static_cast<size_t>(Rows));
  for (int I = 0; I < Rows; ++I) {
    EXPECT_EQ((*Steps)[I].StateId, "state-" + std::to_string(I));
    EXPECT_EQ((*Steps)[I].Actions, (std::vector<int>{I, I + 1}));
  }
  auto Obs = Reopened.readObservations();
  ASSERT_TRUE(Obs.isOk());
  EXPECT_EQ(Obs->size(), static_cast<size_t>(Rows));
  std::filesystem::remove_all(Dir);
}

TEST(TransitionDatabase, FilesExistWhenConstructorReturns) {
  // The writer thread creates no file of its own, so removing the
  // directory right after the database is gone cannot race with it.
  for (int I = 0; I < 100; ++I) {
    std::string Dir = tempDbDir("cg_tdb_open_test");
    std::filesystem::remove_all(Dir);
    core::TransitionDatabase Db(Dir);
    EXPECT_TRUE(std::filesystem::exists(Dir + "/steps.tsv")) << I;
    EXPECT_TRUE(std::filesystem::exists(Dir + "/observations.tsv")) << I;
    EXPECT_TRUE(Db.flush().isOk()) << I;
  }
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "cg_tdb_open_test");
}

TEST(TransitionDatabase, ConcurrentAppendersLoseNoRecords) {
  std::string Dir = tempDbDir("cg_tdb_mt_test");
  constexpr int Threads = 4;
  constexpr int RowsPerThread = 250;
  {
    core::TransitionDatabase Db(Dir);
    std::vector<std::thread> Writers;
    for (int T = 0; T < Threads; ++T)
      Writers.emplace_back([&Db, T] {
        for (int I = 0; I < RowsPerThread; ++I)
          Db.appendStep(stepsRow(T * RowsPerThread + I));
      });
    for (std::thread &T : Writers)
      T.join();
    ASSERT_TRUE(Db.flush().isOk());
    auto Steps = Db.readSteps();
    ASSERT_TRUE(Steps.isOk());
    EXPECT_EQ(Steps->size(), static_cast<size_t>(Threads * RowsPerThread));
  }
  std::filesystem::remove_all(Dir);
}

} // namespace
