//===- core/TransitionDatabase.cpp ----------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/TransitionDatabase.h"

#include "util/StringUtils.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace compiler_gym;
using namespace compiler_gym::core;

namespace {

std::string joinInts(const std::vector<int> &V) {
  std::string Out;
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(V[I]);
  }
  return Out;
}

std::string joinInt64s(const std::vector<int64_t> &V) {
  std::string Out;
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(V[I]);
  }
  return Out;
}

std::string joinDoubles(const std::vector<double> &V) {
  std::string Out;
  char Buf[32];
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += ',';
    std::snprintf(Buf, sizeof(Buf), "%.17g", V[I]);
    Out += Buf;
  }
  return Out;
}

std::vector<int> parseInts(const std::string &S) {
  std::vector<int> Out;
  if (S.empty())
    return Out;
  for (const std::string &Tok : splitString(S, ','))
    Out.push_back(static_cast<int>(std::strtol(Tok.c_str(), nullptr, 10)));
  return Out;
}

std::vector<int64_t> parseInt64s(const std::string &S) {
  std::vector<int64_t> Out;
  if (S.empty())
    return Out;
  for (const std::string &Tok : splitString(S, ','))
    Out.push_back(std::strtoll(Tok.c_str(), nullptr, 10));
  return Out;
}

std::vector<double> parseDoubles(const std::string &S) {
  std::vector<double> Out;
  if (S.empty())
    return Out;
  for (const std::string &Tok : splitString(S, ','))
    Out.push_back(std::strtod(Tok.c_str(), nullptr));
  return Out;
}

/// Escapes tabs/newlines/backslashes so payloads fit a TSV cell.
std::string escapeCell(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\t':
      Out += "\\t";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\\':
      Out += "\\\\";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string unescapeCell(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    ++I;
    switch (S[I]) {
    case 't':
      Out += '\t';
      break;
    case 'n':
      Out += '\n';
      break;
    default:
      Out += S[I];
    }
  }
  return Out;
}

StatusOr<std::vector<std::vector<std::string>>>
readTsv(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return notFound("cannot open '" + Path + "'");
  std::vector<std::vector<std::string>> Rows;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Rows.push_back(splitString(Line, '\t'));
  }
  return Rows;
}

} // namespace

TransitionDatabase::TransitionDatabase(std::string Directory)
    : Dir(std::move(Directory)) {
  // Both tables exist when the constructor returns: the writer thread
  // creates no file after it, so a caller may remove the directory as soon
  // as the database is gone.
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  std::ofstream Steps(Dir + "/steps.tsv", std::ios::app);
  std::ofstream Obs(Dir + "/observations.tsv", std::ios::app);
  if (!Steps || !Obs)
    WriterStatus = internalError("cannot open the transition database "
                                 "tables in '" + Dir + "'");
  Writer = std::thread(
      [this, Steps = std::move(Steps), Obs = std::move(Obs)]() mutable {
        writerLoop(Steps, Obs);
      });
}

TransitionDatabase::~TransitionDatabase() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  Ready.notify_all();
  Writer.join();
}

void TransitionDatabase::appendStep(StepsRow Row) {
  std::string Line = escapeCell(Row.BenchmarkUri) + '\t' +
                     joinInts(Row.Actions) + '\t' + Row.StateId + '\t' +
                     (Row.EndOfEpisode ? "1" : "0") + '\t' +
                     joinDoubles(Row.Rewards);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    StepLines.push_back(std::move(Line));
    WriterIdle = false;
  }
  Ready.notify_one();
}

void TransitionDatabase::appendObservation(ObservationsRow Row) {
  std::string Line = Row.StateId + '\t' + escapeCell(Row.CompressedIr) +
                     '\t' + joinInt64s(Row.InstCounts) + '\t' +
                     joinInt64s(Row.Autophase);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ObsLines.push_back(std::move(Line));
    WriterIdle = false;
  }
  Ready.notify_one();
}

void TransitionDatabase::writerLoop(std::ofstream &Steps,
                                    std::ofstream &Obs) {
  for (;;) {
    std::deque<std::string> StepBatch, ObsBatch;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Ready.wait(Lock, [this] {
        return Stopping || !StepLines.empty() || !ObsLines.empty();
      });
      StepBatch.swap(StepLines);
      ObsBatch.swap(ObsLines);
      if (Stopping && StepBatch.empty() && ObsBatch.empty())
        return;
    }
    for (const std::string &Line : StepBatch)
      Steps << Line << '\n';
    for (const std::string &Line : ObsBatch)
      Obs << Line << '\n';
    Steps.flush();
    Obs.flush();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (StepLines.empty() && ObsLines.empty()) {
        WriterIdle = true;
        Idle.notify_all();
      }
      if ((!Steps || !Obs) && WriterStatus.isOk())
        WriterStatus = internalError("transition database write failed");
    }
  }
}

Status TransitionDatabase::flush() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] {
    return WriterIdle && StepLines.empty() && ObsLines.empty();
  });
  return WriterStatus;
}

Status TransitionDatabase::buildTransitions() {
  CG_RETURN_IF_ERROR(flush());
  CG_ASSIGN_OR_RETURN(std::vector<StepsRow> Steps, readSteps());

  // Consecutive Steps rows within one episode define transitions; an
  // episode restarts when the action list is not an extension of the
  // previous one.
  std::ofstream Out(Dir + "/transitions.tsv", std::ios::trunc);
  if (!Out)
    return internalError("cannot write transitions table");
  std::set<std::string> Seen; // Dedup on (state, action, next).
  for (size_t I = 1; I < Steps.size(); ++I) {
    const StepsRow &Prev = Steps[I - 1];
    const StepsRow &Cur = Steps[I];
    if (Cur.BenchmarkUri != Prev.BenchmarkUri ||
        Cur.Actions.size() != Prev.Actions.size() + 1 ||
        !std::equal(Prev.Actions.begin(), Prev.Actions.end(),
                    Cur.Actions.begin()))
      continue;
    int Action = Cur.Actions.back();
    std::string Key =
        Prev.StateId + ':' + std::to_string(Action) + ':' + Cur.StateId;
    if (!Seen.insert(Key).second)
      continue;
    double Reward = Cur.Rewards.empty() ? 0.0 : Cur.Rewards.back();
    Out << Prev.StateId << '\t' << Action << '\t' << Cur.StateId << '\t'
        << joinDoubles({Reward}) << '\n';
  }
  return Status::ok();
}

StatusOr<std::vector<StepsRow>> TransitionDatabase::readSteps() const {
  CG_ASSIGN_OR_RETURN(auto Rows, readTsv(Dir + "/steps.tsv"));
  std::vector<StepsRow> Out;
  for (const auto &Fields : Rows) {
    if (Fields.size() != 5)
      continue;
    StepsRow Row;
    Row.BenchmarkUri = unescapeCell(Fields[0]);
    Row.Actions = parseInts(Fields[1]);
    Row.StateId = Fields[2];
    Row.EndOfEpisode = Fields[3] == "1";
    Row.Rewards = parseDoubles(Fields[4]);
    Out.push_back(std::move(Row));
  }
  return Out;
}

StatusOr<std::vector<ObservationsRow>>
TransitionDatabase::readObservations() const {
  CG_ASSIGN_OR_RETURN(auto Rows, readTsv(Dir + "/observations.tsv"));
  std::vector<ObservationsRow> Out;
  std::set<std::string> Seen; // De-duplicated by state id on read.
  for (const auto &Fields : Rows) {
    if (Fields.size() != 4)
      continue;
    if (!Seen.insert(Fields[0]).second)
      continue;
    ObservationsRow Row;
    Row.StateId = Fields[0];
    Row.CompressedIr = unescapeCell(Fields[1]);
    Row.InstCounts = parseInt64s(Fields[2]);
    Row.Autophase = parseInt64s(Fields[3]);
    Out.push_back(std::move(Row));
  }
  return Out;
}

StatusOr<std::vector<TransitionsRow>>
TransitionDatabase::readTransitions() const {
  CG_ASSIGN_OR_RETURN(auto Rows, readTsv(Dir + "/transitions.tsv"));
  std::vector<TransitionsRow> Out;
  for (const auto &Fields : Rows) {
    if (Fields.size() != 4)
      continue;
    TransitionsRow Row;
    Row.StateId = Fields[0];
    Row.Action = static_cast<int>(std::strtol(Fields[1].c_str(), nullptr,
                                              10));
    Row.NextStateId = Fields[2];
    Row.Rewards = parseDoubles(Fields[3]);
    Out.push_back(std::move(Row));
  }
  return Out;
}

// -- TransitionLogger ---------------------------------------------------------

TransitionLogger::TransitionLogger(std::unique_ptr<Env> Inner,
                                   TransitionDatabase *Db,
                                   std::function<std::string(Env &)> StateIdFn)
    : EnvWrapper(std::move(Inner)), Db(Db), StateIdFn(std::move(StateIdFn)) {}

StatusOr<service::Observation> TransitionLogger::reset() {
  CG_ASSIGN_OR_RETURN(service::Observation Obs, Inner->reset());
  EpisodeActions.clear();
  EpisodeRewards.clear();
  logState({}, 0.0, false);
  return Obs;
}

StatusOr<StepResult> TransitionLogger::step(const std::vector<int> &Actions) {
  CG_ASSIGN_OR_RETURN(StepResult R, Inner->step(Actions));
  logState(Actions, R.Reward, R.Done);
  return R;
}

void TransitionLogger::logState(const std::vector<int> &NewActions,
                                double Reward, bool Done) {
  EpisodeActions.insert(EpisodeActions.end(), NewActions.begin(),
                        NewActions.end());
  EpisodeRewards.push_back(Reward);
  std::string StateId = StateIdFn(*Inner);

  StepsRow Row;
  Row.BenchmarkUri = BenchmarkUri;
  Row.Actions = EpisodeActions;
  Row.StateId = StateId;
  Row.EndOfEpisode = Done;
  Row.Rewards = EpisodeRewards;
  Db->appendStep(std::move(Row));

  ObservationsRow ObsRow;
  ObsRow.StateId = StateId;
  // One RPC for all three logged spaces (ignore errors: non-IR envs lack
  // them, and the row columns just stay empty).
  ObservationView &View = Inner->observation();
  (void)View.prefetch({"Ir", "InstCount", "Autophase"});
  if (StatusOr<ObservationValue> Ir = View.get("Ir"); Ir.isOk())
    ObsRow.CompressedIr = Ir->raw().Str;
  if (StatusOr<ObservationValue> Ic = View.get("InstCount"); Ic.isOk())
    ObsRow.InstCounts = Ic->raw().Ints;
  if (StatusOr<ObservationValue> Ap = View.get("Autophase"); Ap.isOk())
    ObsRow.Autophase = Ap->raw().Ints;
  Db->appendObservation(std::move(ObsRow));
}
