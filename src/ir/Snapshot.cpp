//===- ir/Snapshot.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Snapshot.h"

#include "telemetry/MetricsRegistry.h"

using namespace compiler_gym;
using namespace compiler_gym::ir;

namespace {

telemetry::Gauge &storeEntries() {
  static telemetry::Gauge &G = telemetry::MetricsRegistry::global().gauge(
      "cg_snapshot_store_entries", {}, "Module snapshots currently stored");
  return G;
}

telemetry::Gauge &storeBytes() {
  static telemetry::Gauge &G = telemetry::MetricsRegistry::global().gauge(
      "cg_snapshot_store_bytes", {},
      "Approximate bytes owned by stored module snapshots");
  return G;
}

telemetry::Counter &storeLookups(bool Hit) {
  static telemetry::MetricsRegistry &M = telemetry::MetricsRegistry::global();
  static const char *Help = "Snapshot store lookups by outcome";
  static telemetry::Counter &Hits = M.counter(
      "cg_snapshot_store_hits_total", {{"outcome", "hit"}}, Help);
  static telemetry::Counter &Misses = M.counter(
      "cg_snapshot_store_hits_total", {{"outcome", "miss"}}, Help);
  return Hit ? Hits : Misses;
}

telemetry::Counter &storeEvictions() {
  static telemetry::Counter &C = telemetry::MetricsRegistry::global().counter(
      "cg_snapshot_store_evictions_total", {},
      "Snapshots dropped by LRU capacity eviction");
  return C;
}

/// Approximate retained size. Shared payloads are charged to every
/// snapshot referencing them (an upper bound — sharing makes the true
/// footprint smaller), which keeps the accounting O(1) per put.
size_t approxModuleBytes(const Module &M) {
  size_t Bytes = 0;
  for (const auto &F : M.functions())
    Bytes += 96 * F->instructionCount() + 64 * F->numBlocks() + 128;
  return Bytes + 64 * M.globals().size() + 256;
}

} // namespace

SnapshotStore &SnapshotStore::global() {
  static SnapshotStore *S = new SnapshotStore();
  return *S;
}

void SnapshotStore::put(uint64_t Key, std::shared_ptr<const Module> Mod) {
  if (!Mod)
    return;
  size_t Bytes = approxModuleBytes(*Mod);
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Evicted = Cache.insert(Key, std::move(Mod), Bytes).Evicted;
  if (Evicted)
    storeEvictions().inc(Evicted);
  storeEntries().set(static_cast<int64_t>(Cache.size()));
  storeBytes().set(static_cast<int64_t>(Cache.bytes()));
}

std::shared_ptr<const Module> SnapshotStore::get(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::shared_ptr<const Module> Mod = Cache.get(Key);
  storeLookups(Mod != nullptr).inc();
  return Mod;
}

void SnapshotStore::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Cache.clear();
  storeEntries().set(0);
  storeBytes().set(0);
}

size_t SnapshotStore::entries() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Cache.size();
}
