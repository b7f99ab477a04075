//===- service/ObservationCache.h - State-keyed observation LRU -*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's one store of deterministic observations: an LRU keyed by
/// (session state key, observation space) behind one mutex. Every
/// CompilerService owns one; a runtime::ServiceBroker hands one shared
/// instance to all its shards. The lock guards one hash lookup and one
/// list splice, so a few shards do not contend on it.
///
/// A deterministic observation is a function of the session's stateKey(),
/// so one entry serves every path to a state: a repeat on an unchanged
/// state, every reset() of a seen benchmark, a fork, a shared action
/// prefix across search candidates, and the base a wire delta is diffed
/// against. Entries are immutable once stored and handed out by shared
/// pointer, so a hit copies nothing under the lock.
///
/// Sizing is fixed: one util::LruCache of at most MaxEntries entries and
/// MaxBytes bytes counted with observationWireSize(); an entry larger than
/// the byte budget is kept as the only entry. The cache outlives
/// CompilerService::restart(), as the snapshot store does. Hits, misses
/// and evictions are counted in cg_obs_cache_events_total{event}.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_SERVICE_OBSERVATIONCACHE_H
#define COMPILER_GYM_SERVICE_OBSERVATIONCACHE_H

#include "service/Message.h"
#include "util/LruCache.h"

#include <memory>
#include <mutex>

namespace compiler_gym {
namespace service {

/// Thread-safe LRU over (stateKey, observation space) -> Observation.
class ObservationCache {
public:
  static constexpr size_t MaxEntries = 4096;
  static constexpr size_t MaxBytes = size_t(64) << 20;

  /// The stored value of (StateKey, SpaceName), promoted to most recently
  /// used; null on a miss.
  std::shared_ptr<const Observation> lookup(uint64_t StateKey,
                                            const std::string &SpaceName);

  /// Stores \p Obs under (StateKey, SpaceName) and returns the stored
  /// value: the existing one when another worker stored it first.
  std::shared_ptr<const Observation> insert(uint64_t StateKey,
                                            const std::string &SpaceName,
                                            Observation Obs);

  /// Entries and observationWireSize() bytes held.
  size_t size() const;
  size_t bytes() const;

  void clear();

private:
  static uint64_t entryKey(uint64_t StateKey, const std::string &SpaceName);

  mutable std::mutex Mutex;
  util::LruCache<Observation> Cache{MaxEntries, MaxBytes};
};

} // namespace service
} // namespace compiler_gym

#endif // COMPILER_GYM_SERVICE_OBSERVATIONCACHE_H
