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
  Stripe &S = stripeFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Map.find(Key);
  if (It == S.Map.end()) {
    cacheEvent("miss").inc();
    return nullptr;
  }
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second); // Promote to MRU.
  cacheEvent("hit").inc();
  return It->second->Obs;
}

std::shared_ptr<const Observation>
ObservationCache::insert(uint64_t StateKey, const std::string &SpaceName,
                         Observation Obs) {
  uint64_t Key = entryKey(StateKey, SpaceName);
  size_t Bytes = observationWireSize(Obs);
  auto Stored = std::make_shared<const Observation>(std::move(Obs));
  Stripe &S = stripeFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Map.find(Key);
  if (It != S.Map.end()) {
    // Another worker computed it concurrently; refresh recency only.
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return It->second->Obs;
  }
  S.Lru.push_front(Entry{Key, Stored, Bytes});
  S.Map.emplace(Key, S.Lru.begin());
  S.Bytes += Bytes;
  while (S.Lru.size() > EntriesPerStripe ||
         (S.Bytes > BytesPerStripe && S.Lru.size() > 1)) {
    S.Bytes -= S.Lru.back().Bytes;
    S.Map.erase(S.Lru.back().Key);
    S.Lru.pop_back();
    cacheEvent("eviction").inc();
  }
  return Stored;
}

size_t ObservationCache::size() const {
  size_t Total = 0;
  for (const Stripe &S : Stripes) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Total += S.Lru.size();
  }
  return Total;
}

size_t ObservationCache::bytes() const {
  size_t Total = 0;
  for (const Stripe &S : Stripes) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Total += S.Bytes;
  }
  return Total;
}

void ObservationCache::clear() {
  for (Stripe &S : Stripes) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Lru.clear();
    S.Map.clear();
    S.Bytes = 0;
  }
}
