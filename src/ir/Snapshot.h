//===- ir/Snapshot.h - Content-addressed module snapshot store --*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, content-addressed store of immutable module snapshots,
/// keyed by the session state key (benchmark URI hash combined with
/// Module::hash() — the same identity the observation caches and the
/// transition database use).
///
/// A snapshot is a frozen structural share (Module::share() of the stored
/// module): publishing one costs O(#functions) pointer copies, restoring
/// one costs the same, and mutation after a restore copy-on-writes in the
/// pass layer. This is what makes crash recovery replay-free: a recovering
/// environment asks the (restarted) service to restore its last state key
/// instead of replaying the episode's action history, and falls back to
/// replay only when the snapshot was evicted.
///
/// The store is bounded (entry count and approximate bytes, LRU eviction)
/// and thread-safe: sessions on different service shards publish and
/// restore concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_SNAPSHOT_H
#define COMPILER_GYM_IR_SNAPSHOT_H

#include "ir/Module.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace compiler_gym {
namespace ir {

/// One restorable state: the frozen module plus the benchmark it belongs
/// to (restore re-derives reward baselines from the benchmark source).
struct Snapshot {
  std::shared_ptr<const Module> Mod;
  std::string BenchmarkUri;
};

/// Bounded LRU map: state key -> snapshot.
class SnapshotStore {
public:
  SnapshotStore(size_t MaxEntries = 256,
                size_t MaxBytes = 64ull * 1024 * 1024)
      : MaxEntries(MaxEntries), MaxBytes(MaxBytes) {}

  /// The process-wide store. Living outside any service instance is the
  /// point: an in-process service "crash" (CompilerService::restart())
  /// destroys every session but not the snapshots, mirroring a snapshot
  /// directory that outlives a service process.
  static SnapshotStore &global();

  /// Publishes \p Mod under \p Key. The module must no longer be mutated
  /// through the stored handle (callers pass a fresh share()). Re-publishing
  /// an existing key refreshes its LRU position only.
  void put(uint64_t Key, std::shared_ptr<const Module> Mod,
           std::string BenchmarkUri);

  /// Looks up \p Key, refreshing its LRU position. Counts a hit or miss.
  std::optional<Snapshot> get(uint64_t Key);

  /// Test hooks.
  void clear();
  void setCapacity(size_t Entries, size_t Bytes);
  size_t entries() const;
  size_t approxBytes() const;

  SnapshotStore(const SnapshotStore &) = delete;
  SnapshotStore &operator=(const SnapshotStore &) = delete;

private:
  struct Entry {
    Snapshot Snap;
    size_t Bytes = 0;
    std::list<uint64_t>::iterator LruIt;
  };

  void evictLocked();

  mutable std::mutex Mutex;
  size_t MaxEntries;
  size_t MaxBytes;
  size_t TotalBytes = 0;
  std::list<uint64_t> Lru; ///< Front = most recently used.
  std::unordered_map<uint64_t, Entry> Map;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_SNAPSHOT_H
