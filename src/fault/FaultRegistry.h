//===- fault/FaultRegistry.h - Deterministic fault injection ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named fault points for deterministic chaos
/// testing. Production code marks interesting failure sites with
///
///   auto F = CG_FAULT_POINT("service.apply_actions", Token);
///   if (F.isError()) return F.Error;
///
/// and pays a single relaxed atomic load when no plan is installed (the
/// macro compiles to a no-op branch). Tests install a seeded FaultPlanSpec
/// whose rules inject crash / delay / error / corrupt actions at chosen
/// points; the same seed always yields the same fault schedule, so a chaos
/// soak that fails is replayable bit-for-bit.
///
/// The registry is the only fault injector: backend crashes and hangs are
/// rules at service.handle, and channel drops, resets, garbling and
/// latency are rules at the transport points every ServiceClient passes.
///
/// Draw stability: each rule owns an independent RNG stream seeded from
/// (plan seed, rule index), and rules whose probability is degenerate
/// (<= 0 or >= 1) consume no draws at all. Adding, disabling, or
/// re-ordering unrelated rules can therefore never shift the fault
/// schedule of the rules you kept — the property that makes seeded chaos
/// plans composable.
///
/// Known fault points (see docs/robustness.md for the catalogue):
///   service.handle        — before dispatch in CompilerService::handleLocked
///   service.apply_actions — per action inside the Step loop
///   passes.run            — before each pass in PassManager::run
///   snapshot.restore      — in LlvmSession::restore before the store lookup
///   gateway.backend_call  — around the gateway's shard round-trip
///   transport.round_trip  — in ServiceClient before each attempt's
///                           Channel->roundTrip
///   transport.reply       — in ServiceClient after each attempt's reply
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_FAULT_FAULTREGISTRY_H
#define COMPILER_GYM_FAULT_FAULTREGISTRY_H

#include "util/CancelToken.h"
#include "util/Rng.h"
#include "util/Status.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace compiler_gym {
namespace fault {

/// What an armed rule does when it fires.
enum class FaultKind {
  Crash,   ///< Simulate a backend crash (site marks the service crashed).
  Delay,   ///< Sleep DelayMs at the point (cancellation-aware by default).
  Error,   ///< Return a typed Status (Code/Message) from the point.
  Corrupt, ///< Truncate the reply to half its length: it never decodes.
};

const char *faultKindName(FaultKind K);

/// One injection rule bound to a named fault point.
struct FaultRule {
  std::string Point;                  ///< Fault-point name this rule arms.
  FaultKind Kind = FaultKind::Error;  ///< Action on fire.
  /// Fire probability per eligible hit. Degenerate values consume no RNG
  /// draws: <= 0 never fires (a disabled rule), >= 1 always fires.
  double Probability = 1.0;
  uint64_t AfterHits = 0; ///< Skip this many hits before becoming eligible.
  uint64_t MaxFires = 0;  ///< Stop after this many fires (0 = unlimited).
  int DelayMs = 0;        ///< Delay faults: how long to stall.
  /// Delay faults: poll the site's cancel token while stalling (default).
  /// false simulates a wedge — a non-cooperative stall only the broker
  /// watchdog can clear.
  bool CancelAware = true;
  StatusCode Code = StatusCode::Unavailable; ///< Error faults: status code.
  std::string Message{};                     ///< Error faults: message.
};

/// A complete seeded chaos plan. Same spec => same fault schedule.
struct FaultPlanSpec {
  uint64_t Seed = 0x5EED;
  std::vector<FaultRule> Rules;
};

/// The outcome of evaluating a fault point. Delay faults are executed by
/// the registry itself (cancellation-aware when the rule allows and the
/// site passed a token); Crash/Error/Corrupt are returned for the site to
/// interpret.
struct FaultAction {
  bool Fired = false;
  FaultKind Kind = FaultKind::Error;
  Status Error; ///< Populated for Error faults.

  explicit operator bool() const { return Fired; }
  bool isCrash() const { return Fired && Kind == FaultKind::Crash; }
  bool isError() const { return Fired && Kind == FaultKind::Error; }
  bool isCorrupt() const { return Fired && Kind == FaultKind::Corrupt; }

  /// Applies a Corrupt fault to \p Reply by truncating it to half its
  /// length. A strict prefix of an encoded message never decodes, so a
  /// corrupt reply can never pass for a good one. No-op for other actions.
  void corruptReply(std::string &Reply) const {
    if (isCorrupt())
      Reply.resize(Reply.size() / 2);
  }
};

/// Process-wide fault-point registry. Thread-safe; the disarmed fast path
/// is a single relaxed atomic load.
class FaultRegistry {
public:
  static FaultRegistry &global();

  /// Installs \p Plan, replacing any previous plan and resetting all hit /
  /// fire counters. Rules' RNG streams are seeded from (Plan.Seed, index).
  void install(const FaultPlanSpec &Plan);

  /// Removes the installed plan; every fault point returns to the no-op
  /// fast path.
  void clear();

  /// True when a plan with at least one rule is installed.
  bool armed() const { return Armed.load(std::memory_order_acquire); }

  /// Evaluates the named point. Counts the hit, fires at most one rule
  /// (first armed rule wins, in plan order), executes Delay faults in
  /// place, and returns the action for the site to interpret. \p Cancel
  /// may be null.
  FaultAction evaluate(const char *Point, const util::CancelToken *Cancel);

  /// Times a named point was reached while a plan was armed.
  uint64_t hits(const std::string &Point) const;
  /// Times any rule fired at the named point.
  uint64_t fires(const std::string &Point) const;
  /// Total fires across all points (chaos-soak "every failure was typed"
  /// accounting).
  uint64_t totalFires() const;

private:
  struct RuleState {
    FaultRule Rule;
    Rng Draws{0};
    uint64_t Hits = 0;
    uint64_t Fires = 0;
  };

  mutable std::mutex M;
  std::atomic<bool> Armed{false};
  std::unordered_map<std::string, std::vector<size_t>> ByPoint;
  std::vector<RuleState> Rules;
  std::unordered_map<std::string, uint64_t> PointHits;
  std::unordered_map<std::string, uint64_t> PointFires;
};

/// Fault-point entry helper: no-op branch (one relaxed load) when no plan
/// is installed.
inline FaultAction faultPoint(const char *Point,
                              const util::CancelToken *Cancel = nullptr) {
  FaultRegistry &R = FaultRegistry::global();
  if (!R.armed())
    return {};
  return R.evaluate(Point, Cancel);
}

/// Installs a plan for the lifetime of a scope and clears the registry on
/// exit, so a failing test or bench cannot leak an armed plan into the
/// code that runs after it.
class ScopedFaultPlan {
public:
  explicit ScopedFaultPlan(const FaultPlanSpec &Plan) {
    FaultRegistry::global().install(Plan);
  }
  ~ScopedFaultPlan() { FaultRegistry::global().clear(); }
  ScopedFaultPlan(const ScopedFaultPlan &) = delete;
  ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

/// Canonical spelling for marking a fault point in production code.
#define CG_FAULT_POINT(PointName, CancelTok)                                   \
  (::compiler_gym::fault::faultPoint((PointName), (CancelTok)))

} // namespace fault
} // namespace compiler_gym

#endif // COMPILER_GYM_FAULT_FAULTREGISTRY_H
