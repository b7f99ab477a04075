//===- core/TransitionDatabase.h - State transition dataset -----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The State Transition Dataset (§III-F, Fig 4): a relational store with
/// three tables —
///   Steps(benchmark_uri, actions[], state_id, end_of_episode, rewards[])
///   Observations(state_id, compressed_ir, instcounts[], autophase[])
///   StateTransitions(state_id, action, next_state_id, rewards[])
/// — written asynchronously by a logging wrapper during environment use,
/// de-duplicated and joined by a post-processing pass, and read back for
/// offline learning (the Fig 8 GGNN cost model trains from it).
///
/// Tables are tab-separated files in a directory; fields that are lists
/// are comma-separated. Simple, append-only, and diffable.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_CORE_TRANSITIONDATABASE_H
#define COMPILER_GYM_CORE_TRANSITIONDATABASE_H

#include "core/Env.h"
#include "core/Wrappers.h"
#include "util/Status.h"

#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

namespace compiler_gym {
namespace core {

/// One Steps-table row.
struct StepsRow {
  std::string BenchmarkUri;
  std::vector<int> Actions;
  std::string StateId; ///< Hex digest of the state.
  bool EndOfEpisode = false;
  std::vector<double> Rewards;
};

/// One Observations-table row.
struct ObservationsRow {
  std::string StateId;
  std::string CompressedIr; ///< Stored verbatim (hex-escaped on disk).
  std::vector<int64_t> InstCounts;
  std::vector<int64_t> Autophase;
};

/// One StateTransitions-table row.
struct TransitionsRow {
  std::string StateId;
  int Action = 0;
  std::string NextStateId;
  std::vector<double> Rewards;
};

/// Append-oriented store over a directory, with an async writer thread so
/// logging does not block the environment loop (§III-F "asynchronously
/// populates").
class TransitionDatabase {
public:
  explicit TransitionDatabase(std::string Directory);
  ~TransitionDatabase();

  const std::string &directory() const { return Dir; }

  /// Queues rows for the background writer.
  void appendStep(StepsRow Row);
  void appendObservation(ObservationsRow Row);

  /// Blocks until every queued row is on disk.
  Status flush();

  /// Post-processing: de-duplicates Observations and derives the
  /// StateTransitions table from consecutive Steps rows.
  Status buildTransitions();

  // -- Readers ----------------------------------------------------------------
  StatusOr<std::vector<StepsRow>> readSteps() const;
  StatusOr<std::vector<ObservationsRow>> readObservations() const;
  StatusOr<std::vector<TransitionsRow>> readTransitions() const;

private:
  /// Drains the queues into the tables the constructor opened.
  void writerLoop(std::ofstream &Steps, std::ofstream &Obs);

  std::string Dir;
  std::mutex Mutex;
  std::condition_variable Ready;
  std::deque<std::string> StepLines;
  std::deque<std::string> ObsLines;
  bool Stopping = false;
  bool WriterIdle = true;
  std::condition_variable Idle;
  Status WriterStatus;
  std::thread Writer;
};

/// Wrapper that logs every step of the wrapped env into a database
/// (the §III-F logging wrapper). Logs the Steps and Observations tables;
/// call db->buildTransitions() afterwards.
class TransitionLogger : public EnvWrapper {
public:
  using Env::step;

  TransitionLogger(std::unique_ptr<Env> Inner, TransitionDatabase *Db,
                   std::function<std::string(Env &)> StateIdFn);

  /// Tags subsequent rows with the benchmark URI being optimized.
  void setBenchmarkUri(std::string Uri) { BenchmarkUri = std::move(Uri); }

  StatusOr<service::Observation> reset() override;
  StatusOr<StepResult> step(const std::vector<int> &Actions) override;

private:
  void logState(const std::vector<int> &NewActions, double Reward, bool Done);

  TransitionDatabase *Db;
  std::function<std::string(Env &)> StateIdFn;
  std::string BenchmarkUri;
  std::vector<int> EpisodeActions;
  std::vector<double> EpisodeRewards;
};

} // namespace core
} // namespace compiler_gym

#endif // COMPILER_GYM_CORE_TRANSITIONDATABASE_H
