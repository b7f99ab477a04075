//===- service/ObservationCache.cpp ---------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ObservationCache.h"

#include "service/Serialization.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Hash.h"

using namespace compiler_gym;
using namespace compiler_gym::service;

namespace {

// Process-wide: every service owns a cache (a broker's shards share one),
// so each series aggregates across all of them.
telemetry::Counter &cacheEvent(const char *Kind) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help = "Observation cache events";
  static telemetry::Counter &Hits =
      M.counter("cg_obs_cache_events_total", {{"event", "hit"}}, Help);
  static telemetry::Counter &Misses =
      M.counter("cg_obs_cache_events_total", {{"event", "miss"}}, Help);
  static telemetry::Counter &Evictions =
      M.counter("cg_obs_cache_events_total", {{"event", "eviction"}}, Help);
  if (Kind[0] == 'h')
    return Hits;
  if (Kind[0] == 'm')
    return Misses;
  return Evictions;
}

} // namespace

uint64_t ObservationCache::entryKey(uint64_t StateKey,
                                    const std::string &SpaceName) {
  return hashCombine(StateKey, fnv1a(SpaceName));
}

std::shared_ptr<const Observation>
ObservationCache::lookup(uint64_t StateKey, const std::string &SpaceName) {
  uint64_t Key = entryKey(StateKey, SpaceName);
  std::shared_ptr<const Observation> Obs;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Obs = Cache.get(Key);
  }
  cacheEvent(Obs ? "hit" : "miss").inc();
  return Obs;
}

std::shared_ptr<const Observation>
ObservationCache::insert(uint64_t StateKey, const std::string &SpaceName,
                         Observation Obs) {
  uint64_t Key = entryKey(StateKey, SpaceName);
  size_t Bytes = observationWireSize(Obs);
  auto Stored = std::make_shared<const Observation>(std::move(Obs));
  util::LruCache<Observation>::InsertResult R;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    R = Cache.insert(Key, std::move(Stored), Bytes);
  }
  if (R.Evicted)
    cacheEvent("eviction").inc(R.Evicted);
  return std::move(R.Value);
}

size_t ObservationCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Cache.size();
}

size_t ObservationCache::bytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Cache.bytes();
}

void ObservationCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Cache.clear();
}
