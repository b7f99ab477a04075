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
/// A snapshot is a module whose function payloads are all immutable
/// (Module::freeze() of the session's module): publishing one costs
/// O(#functions) pointer copies, restoring one (a share()) costs the same,
/// and mutation after a restore copy-on-writes in the pass layer. This is
/// what makes crash recovery replay-free: a recovering environment asks
/// the (restarted) service to restore its last state key instead of
/// replaying the episode's action history, and falls back to replay only
/// when the snapshot was evicted.
///
/// The store is one util::LruCache of 256 entries and 64 MiB of
/// approximate module bytes behind one mutex: sessions on different
/// service shards publish and restore concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_IR_SNAPSHOT_H
#define COMPILER_GYM_IR_SNAPSHOT_H

#include "ir/Module.h"
#include "util/LruCache.h"

#include <cstdint>
#include <memory>
#include <mutex>

namespace compiler_gym {
namespace ir {

/// Bounded LRU map: state key -> frozen module.
class SnapshotStore {
public:
  SnapshotStore(size_t MaxEntries = 256,
                size_t MaxBytes = 64ull * 1024 * 1024)
      : Cache(MaxEntries, MaxBytes) {}

  /// The process-wide store. Living outside any service instance is the
  /// point: an in-process service "crash" (CompilerService::restart())
  /// destroys every session but not the snapshots, mirroring a snapshot
  /// directory that outlives a service process.
  static SnapshotStore &global();

  /// Publishes \p Mod under \p Key. The module must no longer be mutated
  /// through the stored handle (callers pass a fresh freeze()). Re-publishing
  /// an existing key refreshes its LRU position only.
  void put(uint64_t Key, std::shared_ptr<const Module> Mod);

  /// The frozen module under \p Key, refreshing its LRU position; null on a
  /// miss. Counts a hit or miss.
  std::shared_ptr<const Module> get(uint64_t Key);

  /// Test hooks.
  void clear();
  size_t entries() const;

  SnapshotStore(const SnapshotStore &) = delete;
  SnapshotStore &operator=(const SnapshotStore &) = delete;

private:
  mutable std::mutex Mutex;
  util::LruCache<Module> Cache;
};

} // namespace ir
} // namespace compiler_gym

#endif // COMPILER_GYM_IR_SNAPSHOT_H
