//===- util/LruCache.h - Bounded LRU map of immutable values ----*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one bounded map behind every content-keyed store: module snapshots
/// (ir::SnapshotStore), deterministic observations
/// (service::ObservationCache), parsed benchmarks (LlvmSession) and the
/// service's idempotent-retry replies (CompilerService).
///
/// A 64-bit key maps to an immutable value held by shared pointer, so a hit
/// hands the value out without copying it and eviction never frees a value
/// a caller still holds. The most recently used entry is at the front.
/// There are two bounds: an entry count and a byte budget charged with the
/// size each insert declares. An entry larger than the whole byte budget
/// evicts every other entry and is kept as the only one.
///
/// Unsynchronized: each store guards its cache with its own mutex and keeps
/// its own registry series.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_UTIL_LRUCACHE_H
#define COMPILER_GYM_UTIL_LRUCACHE_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <unordered_map>

namespace compiler_gym {
namespace util {

template <typename V> class LruCache {
public:
  explicit LruCache(size_t MaxEntries,
                    size_t MaxBytes = std::numeric_limits<size_t>::max())
      : MaxEntries(MaxEntries), MaxBytes(MaxBytes) {}

  /// The value under \p Key, promoted to most recently used; null on a
  /// miss.
  std::shared_ptr<const V> get(uint64_t Key) {
    auto It = Map.find(Key);
    if (It == Map.end())
      return nullptr;
    Lru.splice(Lru.begin(), Lru, It->second);
    return It->second->Value;
  }

  struct InsertResult {
    std::shared_ptr<const V> Value; ///< What \p Key maps to now.
    size_t Evicted = 0;             ///< Entries the insert pushed out.
  };

  /// Stores \p Value under \p Key, charged \p Bytes, if \p Key is absent,
  /// then evicts from the back until both bounds hold. A present key is
  /// only promoted: the first value stays and is returned.
  InsertResult insert(uint64_t Key, std::shared_ptr<const V> Value,
                      size_t Bytes = 0) {
    if (std::shared_ptr<const V> Present = get(Key))
      return {std::move(Present), 0};
    Lru.push_front(Entry{Key, Value, Bytes});
    Map.emplace(Key, Lru.begin());
    TotalBytes += Bytes;
    size_t Evicted = 0;
    while (Lru.size() > MaxEntries ||
           (TotalBytes > MaxBytes && Lru.size() > 1)) {
      TotalBytes -= Lru.back().Bytes;
      Map.erase(Lru.back().Key);
      Lru.pop_back();
      ++Evicted;
    }
    return {std::move(Value), Evicted};
  }

  size_t size() const { return Lru.size(); }
  size_t bytes() const { return TotalBytes; }

  void clear() {
    Map.clear();
    Lru.clear();
    TotalBytes = 0;
  }

private:
  struct Entry {
    uint64_t Key;
    std::shared_ptr<const V> Value;
    size_t Bytes;
  };

  size_t MaxEntries;
  size_t MaxBytes;
  size_t TotalBytes = 0;
  std::list<Entry> Lru; ///< Front = most recently used.
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> Map;
};

} // namespace util
} // namespace compiler_gym

#endif // COMPILER_GYM_UTIL_LRUCACHE_H
