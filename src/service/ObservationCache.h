//===- service/ObservationCache.h - State-keyed observation LRU -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's one store of deterministic observations: a mutex-striped
/// LRU keyed by (session state key, observation space). Every
/// CompilerService owns one; a runtime::ServiceBroker hands one shared
/// instance to all its shards, and striping keeps the shards from
/// serializing on a single mutex.
///
/// A deterministic observation is a function of the session's stateKey(),
/// so one entry serves every path to a state: a repeat on an unchanged
/// state, every reset() of a seen benchmark, a fork, a shared action
/// prefix across search candidates, and the base a wire delta is diffed
/// against. Entries are immutable once stored and handed out by shared
/// pointer, so a hit copies nothing under the stripe lock.
///
/// Sizing is fixed, on the model of ir::SnapshotStore: each stripe holds
/// at most EntriesPerStripe entries and BytesPerStripe bytes counted with
/// observationWireSize(); an entry larger than a stripe's budget is kept
/// as that stripe's only entry. The cache outlives
/// CompilerService::restart(), as the snapshot store does. Hits, misses
/// and evictions are counted in cg_obs_cache_events_total{event}.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_SERVICE_OBSERVATIONCACHE_H
#define COMPILER_GYM_SERVICE_OBSERVATIONCACHE_H

#include "service/Message.h"

#include <array>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace compiler_gym {
namespace service {

/// Thread-safe striped LRU over (stateKey, observation space) -> Observation.
class ObservationCache {
public:
  static constexpr size_t StripeCount = 16;
  static constexpr size_t EntriesPerStripe = 256;
  static constexpr size_t BytesPerStripe = size_t(4) << 20; ///< 64 MiB total.

  /// The stored value of (StateKey, SpaceName), promoted to most recently
  /// used; null on a miss.
  std::shared_ptr<const Observation> lookup(uint64_t StateKey,
                                            const std::string &SpaceName);

  /// Stores \p Obs under (StateKey, SpaceName) and returns the stored
  /// value: the existing one when another worker stored it first.
  std::shared_ptr<const Observation> insert(uint64_t StateKey,
                                            const std::string &SpaceName,
                                            Observation Obs);

  /// Entries and observationWireSize() bytes across all stripes (takes
  /// every stripe lock).
  size_t size() const;
  size_t bytes() const;
  static constexpr size_t capacity() { return StripeCount * EntriesPerStripe; }

  void clear();

private:
  struct Entry {
    uint64_t Key;
    std::shared_ptr<const Observation> Obs;
    size_t Bytes;
  };
  struct Stripe {
    mutable std::mutex Mutex;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::unordered_map<uint64_t, std::list<Entry>::iterator> Map;
    size_t Bytes = 0;
  };

  static uint64_t entryKey(uint64_t StateKey, const std::string &SpaceName);
  Stripe &stripeFor(uint64_t Key) { return Stripes[Key % StripeCount]; }

  std::array<Stripe, StripeCount> Stripes;
};

} // namespace service
} // namespace compiler_gym

#endif // COMPILER_GYM_SERVICE_OBSERVATIONCACHE_H
