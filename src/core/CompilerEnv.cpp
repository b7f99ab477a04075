//===- core/CompilerEnv.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CompilerEnv.h"

#include "datasets/DatasetRegistry.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Trace.h"
#include "util/Logging.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <unordered_map>

using namespace compiler_gym;
using namespace compiler_gym::core;
using namespace compiler_gym::service;

namespace {

telemetry::Counter &recoveriesTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_env_recoveries_total", {},
      "Crash/hang recoveries performed by frontend environments");
  return C;
}

telemetry::Counter &replayedActionsTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_env_replayed_actions_total", {},
      "Actions replayed into fresh sessions during recovery");
  return C;
}

telemetry::Counter &deltaRepliesTotal() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_env_delta_replies_total", {},
      "Observation replies received as deltas and reconstructed");
  return C;
}

/// Session loss: the session id is gone because the shard was restarted
/// underneath us (by the broker monitor or another env's recovery).
bool isSessionLoss(const Status &S) {
  return S.code() == StatusCode::NotFound &&
         S.message().rfind("no session", 0) == 0;
}

/// Failures the environment can transparently recover from by restarting
/// the service and replaying its action history (§IV-B).
bool isRecoverableFailure(const Status &S) {
  return S.code() == StatusCode::Aborted ||
         S.code() == StatusCode::DeadlineExceeded ||
         S.code() == StatusCode::Unavailable || isSessionLoss(S);
}

} // namespace

CompilerEnv::CompilerEnv(CompilerEnvOptions Opts,
                         std::shared_ptr<CompilerService> Service,
                         std::shared_ptr<ServiceClient> Client)
    : Opts(std::move(Opts)), Service(std::move(Service)),
      Client(std::move(Client)) {
  PendingBenchmarkUri = this->Opts.BenchmarkUri;
}

CompilerEnv::~CompilerEnv() {
  if (SessionLive)
    (void)Client->endSession(SessionId);
}

StatusOr<std::unique_ptr<CompilerEnv>>
CompilerEnv::create(const CompilerEnvOptions &Opts) {
  auto Service = std::make_shared<CompilerService>();
  auto Client = std::make_shared<ServiceClient>(Service, Opts.Client);
  std::unique_ptr<CompilerEnv> Env(
      new CompilerEnv(Opts, std::move(Service), std::move(Client)));
  Env->Registry.setBuiltinRewards(rewardSpecsFor(Opts.CompilerName));
  if (!Opts.RewardSpace.empty() && !Env->Registry.reward(Opts.RewardSpace))
    return notFound("no reward space '" + Opts.RewardSpace +
                    "' for compiler '" + Opts.CompilerName + "'");
  Env->State.EnvId = Opts.EnvId;
  Env->State.RewardSpace = Opts.RewardSpace;
  Env->State.ObservationSpace = Opts.ObservationSpace;
  return Env;
}

StatusOr<std::unique_ptr<CompilerEnv>>
CompilerEnv::attach(const CompilerEnvOptions &Opts,
                    std::shared_ptr<CompilerService> Service,
                    std::shared_ptr<Transport> Channel) {
  auto Client = std::make_shared<ServiceClient>(Service, std::move(Channel),
                                                Opts.Client);
  std::unique_ptr<CompilerEnv> Env(
      new CompilerEnv(Opts, std::move(Service), std::move(Client)));
  Env->SharedService = true;
  Env->Registry.setBuiltinRewards(rewardSpecsFor(Opts.CompilerName));
  if (!Opts.RewardSpace.empty() && !Env->Registry.reward(Opts.RewardSpace))
    return notFound("no reward space '" + Opts.RewardSpace +
                    "' for compiler '" + Opts.CompilerName + "'");
  Env->State.EnvId = Opts.EnvId;
  Env->State.RewardSpace = Opts.RewardSpace;
  Env->State.ObservationSpace = Opts.ObservationSpace;
  return Env;
}

StatusOr<std::unique_ptr<CompilerEnv>>
CompilerEnv::connect(const CompilerEnvOptions &Opts,
                     std::shared_ptr<Transport> Channel) {
  // A remote env is a shared-service env with no in-process service
  // handle: session loss is recoverable (re-establish and restore/replay),
  // and restarts are the far end's job.
  return attach(Opts, /*Service=*/nullptr, std::move(Channel));
}

Status CompilerEnv::setObservationSpace(const std::string &Name) {
  if (!Name.empty() && SessionLive && !Registry.observationSpace(Name))
    return notFound("no observation space '" + Name + "'");
  Opts.ObservationSpace = Name;
  State.ObservationSpace = Name;
  return Status::ok();
}

Status CompilerEnv::setRewardSpace(const std::string &Name) {
  if (Name.empty()) {
    Opts.RewardSpace.clear();
    State.RewardSpace.clear();
    return Status::ok();
  }
  if (!Registry.reward(Name))
    return notFound("no reward space '" + Name + "' for compiler '" +
                    Opts.CompilerName + "'");
  // Mid-episode switch: re-prime from a fresh metric observation *before*
  // committing the switch — a failed prime (e.g. Runtime on a non-runnable
  // benchmark) must leave the previous space active. Without the re-prime,
  // the previous space's last metric value would seed the new space's
  // delta, paying a nonsense first reward.
  if (SessionLive)
    CG_RETURN_IF_ERROR(reward().prime(Name, /*Force=*/true));
  Opts.RewardSpace = Name;
  State.RewardSpace = Name;
  return Status::ok();
}

Status CompilerEnv::startSession(uint64_t RestoreStateKey, bool *Restored) {
  // Benchmark resolution can be expensive (generator-backed datasets build
  // the whole program); cache it so repeated resets stay O(1).
  if (!CachedBenchmark || CachedBenchmark->Uri != Opts.BenchmarkUri) {
    CG_ASSIGN_OR_RETURN(
        datasets::Benchmark Bench,
        datasets::DatasetRegistry::instance().resolve(Opts.BenchmarkUri));
    // Dataset-only URIs resolve to their first member; key the cache by
    // the resolved URI only when it matches the request.
    CachedBenchmark = std::move(Bench);
    if (CachedBenchmark->Uri != Opts.BenchmarkUri)
      CachedBenchmark->Uri = Opts.BenchmarkUri;
  }
  StartSessionRequest Req;
  Req.CompilerName = Opts.CompilerName;
  Req.Bench = *CachedBenchmark;
  Req.ActionSpaceName = Opts.ActionSpaceName;
  Req.RestoreStateKey = RestoreStateKey;
  CG_ASSIGN_OR_RETURN(StartSessionReply Reply, Client->startSession(Req));
  SessionId = Reply.SessionId;
  SessionLive = true;
  Space = Reply.Space;
  Registry.setBackendSpaces(Reply.ObservationSpaces);
  bool DidRestore = RestoreStateKey != 0 && Reply.Restored;
  if (!DidRestore)
    LastStateKey = 0; // The session sits at the benchmark's initial state.
  if (Restored)
    *Restored = DidRestore;
  return Status::ok();
}

StatusOr<CompilerEnv::StepPlan>
CompilerEnv::planStep(const std::vector<std::string> &ObsSpaces,
                      const std::vector<std::string> &RewardSpaces) {
  StepPlan Plan;
  Plan.ObsSpaces = ObsSpaces;
  Plan.RewardSpaces = RewardSpaces;

  auto addObservation = [&](const std::string &Name) -> Status {
    if (!Registry.observationSpace(Name))
      return notFound("no observation space '" + Name + "'");
    Registry.backendClosure(Name, Plan.Wire); // Dedups into the wire set.
    return Status::ok();
  };
  auto addReward = [&](const std::string &Name) -> Status {
    const RewardSpec *Spec = Registry.reward(Name);
    if (!Spec)
      return notFound("no reward space '" + Name + "'");
    CG_RETURN_IF_ERROR(addObservation(Spec->MetricObservation));
    // The baseline is only needed while the space is unprimed: priming
    // copies it into the book.
    if (!Spec->BaselineObservation.empty() && !reward().primed(Name))
      CG_RETURN_IF_ERROR(addObservation(Spec->BaselineObservation));
    return Status::ok();
  };

  if (!Opts.ObservationSpace.empty())
    CG_RETURN_IF_ERROR(addObservation(Opts.ObservationSpace));
  for (const std::string &Name : ObsSpaces)
    CG_RETURN_IF_ERROR(addObservation(Name));
  if (!Opts.RewardSpace.empty()) {
    // The active space can disappear from the registry (unregisterReward
    // of a user space): fail with the cure, not a bare NotFound.
    if (Status S = addReward(Opts.RewardSpace); !S.isOk())
      return failedPrecondition(
          "active reward space '" + Opts.RewardSpace +
          "' is no longer registered; call setRewardSpace() (" +
          S.message() + ")");
  }
  for (const std::string &Name : RewardSpaces)
    CG_RETURN_IF_ERROR(addReward(Name));
  return Plan;
}

Status CompilerEnv::recover() {
  CG_TRACE_SPAN("env.recover", "core");
  recoveriesTotal().inc();
  CG_LOG_INFO_FOR("env", SessionId)
      << "backend failure detected; restarting service (snapshot key "
      << LastStateKey << ", " << State.Actions.size()
      << " actions in replay fallback)";
  SessionLive = false;
  Status Last = Status::ok();
  uint64_t StaleSession = SessionId;
  for (int Attempt = 0; Attempt < 4; ++Attempt) {
    // A remote fleet heals on its own schedule (broker monitor sweep), not
    // ours: pace the re-establishment attempts so they don't all land
    // inside the crash-to-restart window.
    if (Attempt && !Service)
      std::this_thread::sleep_for(std::chrono::milliseconds(10 * Attempt));
    // On a private service a restart is always safe. On a broker shard it
    // kills every other env's session on that shard, so only restart when
    // the service really is down; otherwise (hang, or the broker already
    // restarted it) just re-establish our session on the running service.
    // Remote envs (null Service) never restart anything: the server fleet
    // recovers itself, we just re-establish the session.
    if (Service && (!SharedService || Service->crashed())) {
      Client->restartService();
      StaleSession = 0; // Restart collected every session.
    } else if (StaleSession) {
      // No restart happens, so reap our abandoned session — otherwise a
      // hang-type recovery leaks it (module and all) in the shard's map.
      (void)Client->endSession(StaleSession);
      StaleSession = 0;
    }
    bool Restored = false;
    Last = startSession(LastStateKey, &Restored);
    if (!Last.isOk()) {
      if (isRecoverableFailure(Last))
        continue; // The service died again under us; restart and retry.
      return Last;
    }
    if (Restored) {
      // The backend restored our exact state from its snapshot store:
      // recovery is done, with zero actions replayed.
      CG_LOG_INFO_FOR("env", SessionId)
          << "restored state " << LastStateKey << " from snapshot";
      return Status::ok();
    }
    Last = replayHistory();
    if (Last.isOk() || !isRecoverableFailure(Last))
      return Last;
    SessionLive = false;
  }
  return Last;
}

Status CompilerEnv::replayHistory() {
  StepRequest Req;
  Req.SessionId = SessionId;
  if (!DirectHistory.empty()) {
    Req.Actions = DirectHistory;
  } else {
    Req.Actions.resize(State.Actions.size());
    for (size_t I = 0; I < State.Actions.size(); ++I)
      Req.Actions[I].Index = State.Actions[I];
  }
  if (Req.Actions.empty())
    return Status::ok();
  replayedActionsTotal().inc(Req.Actions.size());
  return Client->step(Req).status();
}

Status CompilerEnv::settleWireObservations(StepReply &Reply) {
  size_t N = std::min(Reply.ObservationNames.size(),
                      Reply.Observations.size());
  // Phase 1: reconstruct every delta against the *pre-request* bases.
  // Retention waits until phase 2 — a request naming the same space twice
  // gets two deltas against the same advertised base, so settling must
  // not replace the base between them.
  for (size_t I = 0; I < N; ++I) {
    Observation &Obs = Reply.Observations[I];
    const std::string &Name = Reply.ObservationNames[I];
    if (!Obs.IsDelta)
      continue;
    auto It = WireBases.find(Name);
    // The service only deltas against a key this env advertised, so a
    // missing or mismatched base is a protocol violation, not a cache
    // miss to paper over.
    if (It == WireBases.end() || It->second.StateKey != Obs.BaseKey)
      return internalError("delta reply for '" + Name +
                           "' does not match any retained base");
    telemetry::SpanScope DeltaSpan("delta.apply", "core");
    CG_ASSIGN_OR_RETURN(Observation Full,
                        applyObservationDelta(It->second, Obs));
    Obs = std::move(Full);
    deltaRepliesTotal().inc();
  }
  // Phase 2: retain the new full values as bases for the next request.
  for (size_t I = 0; I < N; ++I) {
    const Observation &Obs = Reply.Observations[I];
    if (Obs.StateKey == 0 || !deltaEligible(Obs.Type))
      continue;
    auto It = WireBases.find(Reply.ObservationNames[I]);
    if (It == WireBases.end())
      WireBases.emplace(Reply.ObservationNames[I], Obs);
    else if (It->second.StateKey != Obs.StateKey)
      It->second = Obs; // Same key = same content: skip the copy.
  }
  return Status::ok();
}

StatusOr<StepReply> CompilerEnv::callStepWithRecovery(StepRequest Req) {
  Req.SessionId = SessionId;
  // Advertise the retained full values' keys so the service may answer
  // with deltas against its cached value at each key (0 = no base).
  Req.ObservationBaseKeys.clear();
  for (const std::string &Name : Req.ObservationSpaces) {
    auto It = WireBases.find(Name);
    Req.ObservationBaseKeys.push_back(
        It != WireBases.end() ? It->second.StateKey : 0);
  }
  // Backend died, hung, or our session was collected in a shard restart:
  // recover and retry. On a shared shard a retry can race another env's
  // recovery restarting the service again, so allow a few rounds.
  // (Retained base keys stay valid: they are content-addressed and the
  // replay reconstructs the same state; the restarted service answers the
  // retry with deltas while its observation cache still holds the bases,
  // and with full payloads otherwise.)
  Status LastError = Status::ok();
  bool PhantomActions = false;
  for (int Round = 0; Round < 5; ++Round) {
    if (Round > 0) {
      Status Recovered = recover();
      if (!Recovered.isOk()) {
        // Recovery itself can fail with a recoverable error (the restore
        // or replay raced another fault): that burns a round, it does not
        // abandon the RPC.
        if (!isRecoverableFailure(Recovered))
          return Recovered;
        LastError = Recovered;
        continue;
      }
      Req.SessionId = SessionId; // Recovery created a fresh session.
    }
    PhantomActions = false;
    StatusOr<StepReply> Reply = Client->step(Req);
    if (!Reply.isOk()) {
      if (!isRecoverableFailure(Reply.status())) {
        // The service may have applied some of the actions before the
        // request failed (a later action, or an observation, failed).
        // The caller commits none of them: resynchronize the live session
        // to the committed history, as for an unsettleable reply below.
        if (!Req.Actions.empty())
          CG_RETURN_IF_ERROR(recover());
        return Reply.status();
      }
      LastError = Reply.status();
      continue;
    }
    Status Settled = settleWireObservations(*Reply);
    if (Settled.isOk()) {
      // Only a committed reply may move the recovery anchor: after a
      // failed settle the caller never commits these actions, and
      // recovery must restore the last *committed* state.
      if (Reply->SessionStateKey)
        LastStateKey = Reply->SessionStateKey;
      return Reply;
    }
    // The RPC succeeded — the backend HAS applied the actions — but the
    // reply's deltas cannot be reconstructed (corrupted in transport, or
    // a lost base). Returning the error here would desync the episode:
    // the caller only commits actions on success. Instead drop the
    // suspect bases and go through recovery, which replays the committed
    // history and re-issues this request for full payloads.
    CG_LOG_INFO_FOR("env", SessionId)
        << "unreconstructable delta reply (" << Settled.message()
        << "); dropping wire bases and recovering";
    WireBases.clear();
    std::fill(Req.ObservationBaseKeys.begin(), Req.ObservationBaseKeys.end(),
              static_cast<uint64_t>(0));
    LastError = Settled;
    PhantomActions = true;
  }
  // Out of rounds. If the final round's RPC succeeded but its reply could
  // not be settled, the live session holds actions the caller will never
  // commit — resynchronize it to the committed history before surfacing
  // the error, so the next step() does not build on phantom state.
  if (PhantomActions)
    CG_RETURN_IF_ERROR(recover());
  return LastError;
}

StatusOr<StepReply>
CompilerEnv::stepRpcWithRecovery(std::vector<Action> Actions,
                                 const StepPlan &Plan) {
  StepRequest Req;
  Req.Actions = std::move(Actions);
  Req.ObservationSpaces = Plan.Wire;
  return callStepWithRecovery(std::move(Req));
}

StatusOr<StepResult> CompilerEnv::demuxReply(StepReply Reply,
                                             const StepPlan &Plan,
                                             bool HadActions,
                                             bool SettleRewards) {
  StepResult Out;
  Out.Done = Reply.EndOfSession;
  if (Reply.ActionSpaceChanged)
    Space = Reply.NewSpace;

  // The actions changed the state: advance the epoch, then land the
  // reply's observations in the view cache so every demux below — default
  // observation, requested spaces, reward metrics — is a cache hit.
  if (HadActions)
    ++Epoch;
  size_t N = std::min(Reply.ObservationNames.size(),
                      Reply.Observations.size());
  // The default observation demuxes straight off the reply (one copy
  // instead of a round-trip through the cache).
  bool HaveDefaultObs = false;
  for (size_t I = 0; I < N; ++I) {
    if (!HaveDefaultObs && Reply.ObservationNames[I] == Opts.ObservationSpace) {
      Out.Obs = Reply.Observations[I];
      HaveDefaultObs = true;
    }
    observation().prime(Reply.ObservationNames[I],
                        std::move(Reply.Observations[I]));
  }
  if (!Opts.ObservationSpace.empty() && !HaveDefaultObs) {
    // Derived default space: compute through the view.
    CG_ASSIGN_OR_RETURN(ObservationValue V,
                        observation().get(Opts.ObservationSpace));
    Out.Obs = V.raw();
  }
  for (const std::string &Name : Plan.ObsSpaces) {
    CG_ASSIGN_OR_RETURN(ObservationValue V, observation().get(Name));
    Out.Observations.emplace_back(Name, std::move(V));
  }

  if (!SettleRewards)
    return Out;
  // Each reward space settles exactly once per step, even when the active
  // space is also requested explicitly (a second get() would pay zero).
  std::unordered_map<std::string, double> Settled;
  auto settle = [&](const std::string &Name) -> StatusOr<double> {
    auto It = Settled.find(Name);
    if (It != Settled.end())
      return It->second;
    CG_ASSIGN_OR_RETURN(double R, reward().get(Name));
    Settled.emplace(Name, R);
    return R;
  };
  if (!Opts.RewardSpace.empty()) {
    CG_ASSIGN_OR_RETURN(Out.Reward, settle(Opts.RewardSpace));
    State.CumulativeReward += Out.Reward;
  }
  for (const std::string &Name : Plan.RewardSpaces) {
    CG_ASSIGN_OR_RETURN(double R, settle(Name));
    Out.Rewards.emplace_back(Name, R);
  }
  return Out;
}

StatusOr<Observation> CompilerEnv::reset() {
  CG_TRACE_SPAN("env.reset", "core");
  if (SessionLive) {
    (void)Client->endSession(SessionId);
    SessionLive = false;
  }
  Opts.BenchmarkUri = PendingBenchmarkUri; // Apply the pending switch.
  State.Actions.clear();
  State.CumulativeReward = 0.0;
  State.BenchmarkUri = Opts.BenchmarkUri;
  DirectHistory.clear();
  reward().resetBookkeeping();

  Status Started = startSession();
  for (int Round = 0; !Started.isOk() && Round < 4; ++Round) {
    if (!isRecoverableFailure(Started))
      return Started;
    recoveriesTotal().inc();
    if (Service && (!SharedService || Service->crashed()))
      Client->restartService();
    Started = startSession();
  }
  CG_RETURN_IF_ERROR(Started);
  ++Epoch; // Fresh episode state; invalidates the view caches.

  // Observation-free step fetches the initial observation; the active
  // reward space's bookkeeping is primed (not settled) from the same
  // reply, so the episode starts at reward 0 for absolute spaces too.
  CG_ASSIGN_OR_RETURN(StepPlan Plan, planStep({}, {}));
  CG_ASSIGN_OR_RETURN(StepReply Reply, stepRpcWithRecovery({}, Plan));
  CG_ASSIGN_OR_RETURN(StepResult R,
                      demuxReply(std::move(Reply), Plan, /*HadActions=*/false,
                                 /*SettleRewards=*/false));
  if (!Opts.RewardSpace.empty())
    CG_RETURN_IF_ERROR(reward().prime(Opts.RewardSpace));
  return R.Obs;
}

StatusOr<StepResult> CompilerEnv::step(const std::vector<int> &Actions) {
  return step(Actions, {}, {});
}

StatusOr<StepResult>
CompilerEnv::step(const std::vector<int> &Actions,
                  const std::vector<std::string> &ObsSpaces,
                  const std::vector<std::string> &RewardSpaces) {
  if (!SessionLive)
    return failedPrecondition("call reset() before step()");
  CG_TRACE_SPAN("env.step", "core");
  CG_ASSIGN_OR_RETURN(StepPlan Plan, planStep(ObsSpaces, RewardSpaces));
  std::vector<Action> Acts;
  Acts.reserve(Actions.size());
  for (int A : Actions) {
    Action Act;
    Act.Index = A;
    Acts.push_back(Act);
  }
  CG_ASSIGN_OR_RETURN(StepReply Reply,
                      stepRpcWithRecovery(std::move(Acts), Plan));
  // The backend applied the actions: commit them to the episode history
  // before demuxing, so a failing derived space cannot desync the record.
  State.Actions.insert(State.Actions.end(), Actions.begin(), Actions.end());
  return demuxReply(std::move(Reply), Plan, !Actions.empty(),
                    /*SettleRewards=*/true);
}

StatusOr<StepResult>
CompilerEnv::stepDirect(const std::vector<int64_t> &Choices,
                        const std::vector<std::string> &ObsSpaces,
                        const std::vector<std::string> &RewardSpaces) {
  if (!SessionLive)
    return failedPrecondition("call reset() before step()");
  CG_TRACE_SPAN("env.step_direct", "core");
  CG_ASSIGN_OR_RETURN(StepPlan Plan, planStep(ObsSpaces, RewardSpaces));
  Action Act;
  Act.Index = 0;
  Act.Values = Choices;
  CG_ASSIGN_OR_RETURN(StepReply Reply, stepRpcWithRecovery({Act}, Plan));
  // Committed before demux; see step().
  State.Actions.push_back(0);
  DirectHistory.push_back(std::move(Act));
  return demuxReply(std::move(Reply), Plan, /*HadActions=*/true,
                    /*SettleRewards=*/true);
}

StatusOr<std::vector<Observation>>
CompilerEnv::rawObservations(const std::vector<std::string> &Spaces) {
  if (!SessionLive)
    return failedPrecondition("call reset() before observing");
  if (Spaces.empty())
    return std::vector<Observation>{};
  CG_TRACE_SPAN("env.observe", "core");
  StepRequest Req;
  Req.ObservationSpaces = Spaces;
  StatusOr<StepReply> Reply = callStepWithRecovery(std::move(Req));
  if (!Reply.isOk())
    return Reply.status();
  if (Reply->Observations.size() != Spaces.size())
    return internalError("observation reply carried " +
                         std::to_string(Reply->Observations.size()) +
                         " observations for " +
                         std::to_string(Spaces.size()) + " spaces");
  return std::move(Reply->Observations);
}

StatusOr<std::unique_ptr<CompilerEnv>> CompilerEnv::fork() {
  if (!SessionLive)
    return failedPrecondition("call reset() before fork()");
  CG_TRACE_SPAN("env.fork", "core");
  CG_ASSIGN_OR_RETURN(uint64_t NewSession, Client->fork(SessionId));
  std::unique_ptr<CompilerEnv> Clone(
      new CompilerEnv(Opts, Service, Client));
  Clone->Space = Space;
  Clone->Registry = Registry;
  Clone->SessionId = NewSession;
  Clone->SessionLive = true;
  Clone->SharedService = SharedService;
  Clone->State = State;
  Clone->Epoch = Epoch;
  Clone->PendingBenchmarkUri = PendingBenchmarkUri;
  Clone->DirectHistory = DirectHistory;
  // Content-addressed, and the fork sits at the same state: the clone can
  // snapshot-recover without ever having stepped.
  Clone->LastStateKey = LastStateKey;
  // Wire bases are content-addressed, so the clone can delta against the
  // parent's retained values immediately.
  Clone->WireBases = WireBases;
  Clone->observation().copyCacheFrom(observation());
  Clone->reward().copyBooksFrom(reward());
  return Clone;
}

Status CompilerEnv::rebase(CompilerEnv &Parent) {
  if (&Parent == this)
    return invalidArgument("rebase: parent must be a different env");
  if (!Parent.SessionLive)
    return failedPrecondition("rebase: parent has no live session");
  CG_TRACE_SPAN("env.rebase", "core");
  // Reap the current session first: rebase replaces it wholesale, and an
  // abandoned session would leak (module and all) in the shard's map.
  if (SessionLive) {
    (void)Client->endSession(SessionId);
    SessionLive = false;
  }
  Opts.BenchmarkUri = Parent.Opts.BenchmarkUri;
  PendingBenchmarkUri = Parent.PendingBenchmarkUri;
  Opts.ObservationSpace = Parent.Opts.ObservationSpace;
  Opts.RewardSpace = Parent.Opts.RewardSpace;
  CachedBenchmark = Parent.CachedBenchmark;
  // Carries the parent's user-registered spaces; startSession() refreshes
  // the backend half from the new session's catalogue.
  Registry = Parent.Registry;
  bool Restored = false;
  CG_RETURN_IF_ERROR(startSession(Parent.LastStateKey, &Restored));
  State = Parent.State;
  DirectHistory = Parent.DirectHistory;
  // No snapshot survives for the parent's state (parent never stepped, or
  // the store evicted it): replay its history.
  if (!Restored)
    CG_RETURN_IF_ERROR(replayHistory());
  // Content-addressed: the session now sits at the parent's state, so the
  // parent's key names it regardless of how we got here.
  LastStateKey = Parent.LastStateKey;
  Epoch = Parent.Epoch;
  WireBases = Parent.WireBases;
  observation().copyCacheFrom(Parent.observation());
  reward().copyBooksFrom(Parent.reward());
  return Status::ok();
}

Status CompilerEnv::writeIr(const std::string &Path) {
  CG_ASSIGN_OR_RETURN(ObservationValue Ir, observation().get("Ir"));
  CG_ASSIGN_OR_RETURN(std::string Text, Ir.asString());
  std::ofstream Out(Path);
  if (!Out)
    return internalError("cannot open '" + Path + "' for writing");
  Out << Text;
  return Status::ok();
}
