//===- perfbench/src/Workloads.cpp - The three benchmark workloads --------===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Registry.h"
#include "datasets/DatasetRegistry.h"
#include "envs/llvm/LlvmSession.h"
#include "gateway/Gateway.h"
#include "net/SocketTransport.h"
#include "runtime/EnvPool.h"
#include "util/Rng.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sched.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

using namespace compiler_gym;

namespace {

constexpr const char *Obs = "Autophase";
constexpr const char *Reward = "IrInstructionCount";
/// Programs drawn per load thread; the timed phase wraps around if it
/// outruns them.
constexpr size_t DrawLength = 4096;
/// Programs taken from each generated dataset.
constexpr int GeneratedPool = 16;
/// Set-ups performed per run; setup_s is their median.
constexpr int SetupRepeats = 11;
/// Steps per episode (rl-episodes, gateway-multispace).
constexpr int EpisodeLength = 20;
/// Greedy rounds per program (autotune-fanout).
constexpr int AutotuneRounds = 2;

/// One stratum of a program draw: a fixed list of benchmark names within
/// one dataset.
struct Source {
  std::string Dataset;
  std::vector<std::string> Names;
};

/// The first \p Count programs of a generated dataset: a fixed pool, so
/// that every seed draws from the same population and runs stay comparable.
Source firstPrograms(const std::string &Dataset, int Count) {
  Source S{Dataset, {}};
  for (int I = 0; I < Count; ++I)
    S.Names.push_back(std::to_string(I));
  return S;
}

/// Deals programs round-robin over the sources, each source's names in a
/// seeded shuffled order, reshuffled when exhausted. Every prefix of the
/// draw therefore holds each source, and each program within a source, in
/// (nearly) equal shares whatever the seed.
std::vector<std::string> drawPrograms(const std::vector<Source> &Sources,
                                      uint64_t Seed, size_t Count) {
  Rng Gen(Seed);
  std::vector<std::vector<std::string>> Decks(Sources.size());
  std::vector<std::string> Out;
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    const Source &S = Sources[I % Sources.size()];
    std::vector<std::string> &Deck = Decks[I % Sources.size()];
    if (Deck.empty()) {
      Deck = S.Names;
      Gen.shuffle(Deck);
    }
    Out.push_back(S.Dataset + "/" + Deck.back());
    Deck.pop_back();
  }
  return Out;
}

/// The actions episodes draw from: every action but the nondeterministic
/// ones. licm and licm-promote iterate NaturalLoop::Blocks, an
/// unordered_set of pointers, so the order in which they hoist instructions
/// varies from run to run; a later order-sensitive pass can turn that into
/// different observations, which the correctness replay would report as
/// mismatches that do not repeat.
std::vector<int> actionPool(const std::vector<std::string> &Names) {
  std::vector<int> Pool;
  for (size_t A = 0; A < Names.size(); ++A)
    if (Names[A] != "licm" && Names[A] != "licm-promote")
      Pool.push_back(static_cast<int>(A));
  return Pool;
}

uint64_t streamSeed(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  uint64_t H = Seed * 0x9E3779B97F4A7C15ull;
  H ^= (Stream + 1) * 0xC2B2AE3D27D4EB4Full;
  H ^= (Index + 1) * 0x165667B19E3779F9ull;
  return H;
}

/// Whether a traced run keeps spans for episode \p K: about half the
/// episodes, chosen by a hash of K. Alternating episodes would not do:
/// programs are dealt round-robin over the sources, so with an even number
/// of sources the spanned and unspanned halves would hold different
/// datasets, and trace.overhead_us would compare different programs.
bool keepsSpans(uint64_t K) {
  uint64_t Z = K + 0x9E3779B97F4A7C15ull; // splitmix64 finalizer.
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return ((Z ^ (Z >> 31)) >> 63) != 0;
}

/// Resolves (generates) every program a workload draws from, timing each
/// DatasetRegistry::resolve.
Status resolvePool(const std::vector<Source> &Sources, WorkloadRun &Out) {
  for (const Source &S : Sources)
    for (const std::string &Name : S.Names) {
      const double T0 = nowUs();
      auto B = datasets::DatasetRegistry::instance().resolve(S.Dataset + "/" +
                                                             Name);
      Out.ResolveUs.push_back(nowUs() - T0);
      if (!B.isOk())
        return B.status();
    }
  return Status::ok();
}

/// Builds the rig SetupRepeats times and keeps the last one. The first
/// set-up is timed from process start, the others from their own start;
/// earlier rigs are torn down untimed.
template <typename RigT>
StatusOr<std::unique_ptr<RigT>>
setUp(WorkloadRun &Out,
      const std::function<StatusOr<std::unique_ptr<RigT>>(int)> &Make) {
  std::unique_ptr<RigT> Rig;
  for (int I = 0; I < SetupRepeats; ++I) {
    Rig.reset();
    const double T0 = I == 0 ? 0.0 : nowUs();
    auto R = Make(I);
    if (!R.isOk())
      return R.status();
    Rig = R.takeValue();
    Out.SetupS.push_back((nowUs() - T0) / 1e6);
  }
  return Rig;
}

/// A short untimed episode that pays one-time costs (pass instances,
/// registries, benchmark parse) before timing starts.
Status warmUp(core::CompilerEnv &Env, const std::string &Uri) {
  Env.setBenchmark(Uri);
  CG_ASSIGN_OR_RETURN(service::Observation O, Env.reset());
  (void)O;
  for (int A : {0, 7, 21, 35}) {
    CG_ASSIGN_OR_RETURN(core::StepResult R, Env.step(A));
    (void)R;
  }
  return Status::ok();
}

/// Fills the episode's final observations: the default Autophase from the
/// last step, InstCount and IrInstructionCount fetched after it.
bool finishEpisode(core::CompilerEnv &Env, Recorder &Rec, Episode &E,
                   std::vector<int64_t> LastAutophase) {
  auto Final = Rec.op("env.observe", nullptr, [&] {
    return Env.rawObservations({"InstCount", "IrInstructionCount"});
  });
  if (!Final.isOk())
    return false;
  E.Autophase = std::move(LastAutophase);
  E.InstCount = (*Final)[0].Ints;
  E.IrInstructionCount = (*Final)[1].IntValue;
  E.Reward = Env.episodeReward();
  return true;
}

/// Forks the finished episode (a checkpoint, as a search would take) and
/// drops the fork; traced runs also probe the bare RPC round trip.
void probeEpisodeEnd(const Config &C, core::CompilerEnv &Env, Recorder &Rec) {
  {
    auto Fork = Rec.op("env.fork", &Rec.ForkUs, [&] { return Env.fork(); });
    (void)Fork;
  }
  if (C.Trace)
    (void)Rec.op("client.heartbeat", &Rec.HeartbeatUs,
                 [&] { return Env.client().heartbeat(); });
}

/// Closed-loop episodes of seeded uniform random actions on \p Env until
/// \p DeadlineUs, resetting onto the next program of \p Programs each time.
void runEpisodes(const Config &C, core::CompilerEnv &Env,
                 const std::vector<std::string> &Programs, uint64_t Stream,
                 const std::vector<std::string> &StepSpaces, double DeadlineUs,
                 Recorder &Rec) {
  const bool MultiSpace = StepSpaces.size() > 1;
  for (uint64_t K = 0; nowUs() < DeadlineUs; ++K) {
    Episode E;
    E.Id = static_cast<int64_t>(Stream * 1000000 + K);
    E.Uri = Programs[K % Programs.size()];
    Rec.beginEpisode(E.Id, C.Trace && keepsSpans(K));
    Env.setBenchmark(E.Uri);
    auto R = Rec.op("env.reset", &Rec.ResetUs, [&] { return Env.reset(); });
    bool Ok = R.isOk();
    std::vector<int64_t> Last = Ok ? R->Ints : std::vector<int64_t>();
    Rng Act(streamSeed(C.Seed, Stream, K));
    const std::vector<int> Actions =
        actionPool(Env.actionSpace().ActionNames);
    for (int S = 0; Ok && S < EpisodeLength; ++S) {
      const int A = Act.pick(Actions);
      auto Step = Rec.op("env.step", &Rec.StepUs, [&] {
        return MultiSpace ? Env.step({A}, StepSpaces, {Reward}) : Env.step(A);
      });
      if (!(Ok = Step.isOk()))
        break;
      ++Rec.Steps;
      E.Actions.push_back(A);
      Last = Step->Obs.Ints;
    }
    if (Ok && finishEpisode(Env, Rec, E, std::move(Last))) {
      probeEpisodeEnd(C, Env, Rec);
      ++Rec.Candidates;
      Rec.Episodes.push_back(std::move(E));
    }
    Rec.endEpisode();
  }
}

/// Creates one recorder per load thread and opens the registry window.
/// Returns the start of the timed phase.
double beginTimedPhase(const Config &C, WorkloadRun &Out, size_t Threads) {
  Out.Recorders.resize(Threads);
  for (Recorder &R : Out.Recorders)
    R.Tracing = C.Trace;
  Out.Registry.begin();
  return nowUs();
}

void endTimedPhase(WorkloadRun &Out, double Start) {
  Out.WallS = (nowUs() - Start) / 1e6;
  Out.Registry.end();
}

core::MakeOptions makeOptions(const std::string &Benchmark) {
  core::MakeOptions MO;
  MO.Benchmark = Benchmark;
  MO.ObservationSpace = Obs;
  MO.RewardSpace = Reward;
  return MO;
}

// -- rl-episodes ----------------------------------------------------------------

/// Confines the calling thread, and every thread it creates from now on, to
/// the \p Count highest-numbered of its allowed CPUs; restores the previous
/// CPU set on destruction. The choice is fixed, so every run of a workload
/// uses the same CPUs, and it keeps clear of CPU 0, which serves most
/// interrupts.
class PinToCpus {
public:
  explicit PinToCpus(int Count) {
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    cpu_set_t Chosen;
    CPU_ZERO(&Chosen);
    int Taken = 0;
    for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0 && Taken < Count; --Cpu) {
      if (CPU_ISSET(Cpu, &Saved)) {
        CPU_SET(Cpu, &Chosen);
        ++Taken;
      }
    }
    Pinned = Taken > 0 && sched_setaffinity(0, sizeof(Chosen), &Chosen) == 0;
  }
  ~PinToCpus() {
    if (Pinned)
      (void)sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  PinToCpus(const PinToCpus &) = delete;
  PinToCpus &operator=(const PinToCpus &) = delete;

private:
  cpu_set_t Saved{};
  bool Pinned = false;
};

/// cbench-v1 programs whose random-action steps stay below ~50 ms. The
/// others (and npb-v0, whose steps reach 300-1000 ms) are left out for the
/// reason ghostscript, lame and jpeg-* are: a single step of hundreds of ms
/// (up to minutes on susan and tiff2rgba) dominates a run and makes it
/// unrepeatable. autotune-fanout covers the mid-size programs.
std::vector<Source> rlSources() {
  return {{"benchmark://cbench-v1",
           {"bitcount", "blowfish", "dijkstra", "patricia", "qsort", "sha",
            "stringsearch"}},
          firstPrograms("benchmark://csmith-v0", GeneratedPool),
          firstPrograms("benchmark://github-v0", GeneratedPool),
          firstPrograms("benchmark://poj104-v1", GeneratedPool)};
}

StatusOr<WorkloadRun> runRlEpisodes(const Config &C) {
  WorkloadRun Out;
  Out.StepSpaces = {Obs};
  // One env on one thread: the env's service thread (created by the set-up
  // below) shares the client's CPU, so every RPC is a same-CPU hand-off.
  // Left to the scheduler, the two threads land on one CPU in some runs and
  // on two in others, and fork latency moves by half between the two.
  PinToCpus Pin(1);
  struct Rig {
    std::unique_ptr<core::CompilerEnv> Env;
    std::vector<std::string> Programs;
  };
  CG_ASSIGN_OR_RETURN(
      std::unique_ptr<Rig> R,
      setUp<Rig>(Out, [&](int) -> StatusOr<std::unique_ptr<Rig>> {
        auto G = std::make_unique<Rig>();
        CG_RETURN_IF_ERROR(resolvePool(rlSources(), Out));
        G->Programs = drawPrograms(rlSources(), C.Seed, DrawLength);
        CG_ASSIGN_OR_RETURN(G->Env,
                            core::make("llvm-v0", makeOptions(G->Programs[0])));
        CG_RETURN_IF_ERROR(warmUp(*G->Env, "benchmark://cbench-v1/crc32"));
        return G;
      }));
  Out.ActionNames = R->Env->actionSpace().ActionNames;
  const double Start = beginTimedPhase(C, Out, 1);
  runEpisodes(C, *R->Env, R->Programs, 0, Out.StepSpaces,
              Start + C.Seconds * 1e6, Out.Recorders[0]);
  endTimedPhase(Out, Start);
  return Out;
}

// -- gateway-multispace -----------------------------------------------------------

constexpr int GatewayClients = 2;

std::vector<Source> gatewaySources() {
  return {firstPrograms("benchmark://llvm-stress-v0", GeneratedPool),
          {"benchmark://cbench-v1", {"bitcount"}},
          firstPrograms("benchmark://poj104-v1", GeneratedPool)};
}

StatusOr<WorkloadRun> runGatewayMultispace(const Config &C) {
  WorkloadRun Out;
  // One CPU per client thread plus one: the two clients' steps and the two
  // shards run in parallel, and thread hops along the path (client, server,
  // gateway dispatcher, shard) are cross-CPU wake-ups, as in a deployment.
  // The fixed CPU set keeps runs comparable; the CPU left free absorbs
  // other processes.
  PinToCpus Pin(GatewayClients + 1);
  Out.StepSpaces = {Obs, "Programl"};
  struct Rig {
    // Declared first so it is destroyed last: the envs' destructors end
    // their sessions through it.
    std::unique_ptr<gateway::Gateway> Gw;
    std::vector<std::unique_ptr<core::CompilerEnv>> Envs;
    std::vector<std::vector<std::string>> Programs;
  };
  CG_ASSIGN_OR_RETURN(
      std::unique_ptr<Rig> R,
      setUp<Rig>(Out, [&](int I) -> StatusOr<std::unique_ptr<Rig>> {
        auto G = std::make_unique<Rig>();
        envs::registerLlvmEnvironment();
        gateway::GatewayOptions GO;
        GO.Listen.Kind = net::NetAddress::Family::Unix;
        GO.Listen.Path = C.OutDir + "/gw-" + std::to_string(::getpid()) +
                         "-" + std::to_string(I) + ".sock";
        GO.NumShards = 2;
        // One handler thread per client connection: the loop is closed, so
        // more would only add idle threads.
        GO.Server.Threads = GatewayClients;
        GO.Tenants = {{"tenant-a", "token-a", 1}, {"tenant-b", "token-b", 1}};
        CG_ASSIGN_OR_RETURN(G->Gw, gateway::Gateway::serve(std::move(GO)));
        CG_RETURN_IF_ERROR(resolvePool(gatewaySources(), Out));
        for (int T = 0; T < GatewayClients; ++T) {
          G->Programs.push_back(drawPrograms(
              gatewaySources(), streamSeed(C.Seed, T, 0), DrawLength));
          CG_ASSIGN_OR_RETURN(core::CompilerEnvOptions EO,
                              core::resolveMakeOptions(
                                  "llvm-v0", makeOptions(G->Programs[T][0])));
          EO.Client.AuthToken = T == 0 ? "token-a" : "token-b";
          CG_ASSIGN_OR_RETURN(
              std::unique_ptr<core::CompilerEnv> Env,
              core::CompilerEnv::connect(
                  EO, std::make_shared<net::SocketTransport>(
                          G->Gw->boundAddress())));
          CG_RETURN_IF_ERROR(warmUp(*Env, "benchmark://cbench-v1/bitcount"));
          G->Envs.push_back(std::move(Env));
        }
        return G;
      }));
  Out.ActionNames = R->Envs[0]->actionSpace().ActionNames;
  const double Start = beginTimedPhase(C, Out, GatewayClients);
  const double Deadline = Start + C.Seconds * 1e6;
  std::vector<std::thread> Clients;
  for (int T = 0; T < GatewayClients; ++T)
    Clients.emplace_back([&, T] {
      runEpisodes(C, *R->Envs[T], R->Programs[T], T, Out.StepSpaces, Deadline,
                  Out.Recorders[T]);
    });
  for (std::thread &T : Clients)
    T.join();
  endTimedPhase(Out, Start);
  return Out;
}

// -- autotune-fanout --------------------------------------------------------------

std::vector<Source> autotuneSources() {
  return {{"benchmark://cbench-v1",
           {"bzip2", "susan", "gsm", "tiff2bw", "tiff2rgba", "tiffdither",
            "tiffmedian"}},
          firstPrograms("benchmark://tensorflow-v0", 4),
          firstPrograms("benchmark://npb-v0", 4)};
}

/// One greedy search on E.Uri: each round fans every action out as a
/// one-step continuation and steps the parent with the best one. Returns
/// whether every op succeeded.
bool greedyEpisode(const Config &C, runtime::EnvPool &Pool, Episode &E,
                   Recorder &Rec, WorkloadRun &Out) {
  core::CompilerEnv &Parent = Pool.env(0);
  Parent.setBenchmark(E.Uri);
  auto R = Rec.op("env.reset", &Rec.ResetUs, [&] { return Parent.reset(); });
  if (!R.isOk())
    return false;
  std::vector<int64_t> Last = R->Ints;
  std::vector<std::vector<int>> Candidates;
  for (int A : actionPool(Parent.actionSpace().ActionNames))
    Candidates.push_back({A});
  for (int Round = 0; Round < AutotuneRounds; ++Round) {
    (void)Rec.op("env.fork", &Rec.ForkUs, [&] { return Parent.fork(); });
    auto Deltas = Rec.op("pool.evaluate_continuations", nullptr, [&] {
      return Pool.evaluateContinuations(Parent, Candidates);
    });
    if (!Deltas.isOk())
      return false;
    Rec.Candidates += Candidates.size();
    Rec.Steps += Candidates.size();
    const size_t Best = static_cast<size_t>(
        std::max_element(Deltas->begin(), Deltas->end()) - Deltas->begin());
    const int A = Candidates[Best][0];
    auto S = Rec.op("env.step", &Rec.StepUs, [&] { return Parent.step(A); });
    if (!S.isOk())
      return false;
    ++Rec.Steps;
    E.Actions.push_back(A);
    Last = S->Obs.Ints;
    if (std::fabs(S->Reward - (*Deltas)[Best]) > 1e-9)
      Out.OnlineMismatches.push_back(
          E.Uri + " round " + std::to_string(Round) + " action " +
          std::to_string(A) + ": candidate delta " +
          std::to_string((*Deltas)[Best]) + " vs parent reward " +
          std::to_string(S->Reward));
  }
  if (!finishEpisode(Parent, Rec, E, std::move(Last)))
    return false;
  if (C.Trace)
    (void)Rec.op("client.heartbeat", &Rec.HeartbeatUs,
                 [&] { return Parent.client().heartbeat(); });
  return true;
}

StatusOr<WorkloadRun> runAutotuneFanout(const Config &C) {
  WorkloadRun Out;
  // One CPU per pool worker: the fan-out stays parallel, and every run
  // uses the same CPUs.
  PinToCpus Pin(2);
  Out.StepSpaces = {Obs};
  struct Rig {
    std::unique_ptr<runtime::EnvPool> Pool;
    std::vector<std::string> Programs;
  };
  CG_ASSIGN_OR_RETURN(
      std::unique_ptr<Rig> R,
      setUp<Rig>(Out, [&](int) -> StatusOr<std::unique_ptr<Rig>> {
        auto G = std::make_unique<Rig>();
        CG_RETURN_IF_ERROR(resolvePool(autotuneSources(), Out));
        G->Programs = drawPrograms(autotuneSources(), C.Seed, DrawLength);
        runtime::EnvPoolOptions PO;
        PO.Make = makeOptions(G->Programs[0]);
        PO.NumWorkers = 2;
        PO.Broker.NumShards = 2;
        CG_ASSIGN_OR_RETURN(G->Pool, runtime::EnvPool::create(std::move(PO)));
        core::CompilerEnv &Parent = G->Pool->env(0);
        CG_RETURN_IF_ERROR(warmUp(Parent, "benchmark://npb-v0/0"));
        CG_ASSIGN_OR_RETURN(std::vector<double> D,
                            G->Pool->evaluateContinuations(
                                Parent, {{0}, {7}, {21}, {35}}));
        (void)D;
        return G;
      }));
  Out.ActionNames = R->Pool->env(0).actionSpace().ActionNames;
  const double Start = beginTimedPhase(C, Out, 1);
  Recorder &Rec = Out.Recorders[0];
  const double Deadline = Start + C.Seconds * 1e6;
  for (uint64_t K = 0; nowUs() < Deadline; ++K) {
    Episode E;
    E.Id = static_cast<int64_t>(K);
    E.Uri = R->Programs[K % R->Programs.size()];
    Rec.beginEpisode(E.Id, C.Trace && keepsSpans(K));
    if (greedyEpisode(C, *R->Pool, E, Rec, Out))
      Rec.Episodes.push_back(std::move(E));
    Rec.endEpisode();
  }
  endTimedPhase(Out, Start);
  return Out;
}

} // namespace

StatusOr<WorkloadRun> runWorkload(const Config &C) {
  if (C.Workload == "rl-episodes")
    return runRlEpisodes(C);
  if (C.Workload == "gateway-multispace")
    return runGatewayMultispace(C);
  if (C.Workload == "autotune-fanout")
    return runAutotuneFanout(C);
  return invalidArgument("unknown workload '" + C.Workload + "'");
}

} // namespace perfbench
