// Memoized counter allocation.  The common EventSet build-up pattern —
// N add_event() calls, each triggering a full rebuild — used to re-run
// the bipartite matcher on every prefix of the native list, and
// plan_multiplex re-solved its whole-remainder probe on every rebuild.
// The matcher is deterministic for a given (event list, priorities)
// pair, so its outcomes — successful assignments *and* kConflict
// failures (a failed full allocation is exactly what routes
// plan_multiplex to its partial-solve fallback) — are memoized here in
// an LRU keyed on that pair.  A repeated identical build is then 100 %
// cache hits, and any build sequence performs at most one solve per
// distinct native list.
//
// Staleness: allocation outcomes can change when the substrate's
// allocation rules change (sim-alpha's estimation mode turns otherwise
// unplaceable events placeable).  Substrate::allocation_generation()
// versions those rules; the cache drops that substrate's entries when
// its generation moves.  One cache serves every registered component:
// entries are keyed on (component id, native list, priorities) — the
// same small native codes recur across component namespaces, so the
// component id is part of identity, and each component's generation is
// tracked independently (an uncore reconfiguration must not flush the
// CPU core's solves).  The cache is mutex-guarded — it sits on the
// EventSet *build* path (add/remove/enable_multiplex), never on the
// read hot path.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include <array>

#include "common/status.h"
#include "core/component.h"
#include "pmu/native_event.h"

namespace papirepro::papi {

class Substrate;

class AllocationCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;

  explicit AllocationCache(std::size_t capacity = kDefaultCapacity);

  /// The only count of these outcomes: the telemetry snapshot's
  /// alloc_cache_* counters are read from here.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;  ///< generation-change flushes
    std::size_t entries = 0;
  };

  /// Substrate::allocate through the memo: a hit returns the cached
  /// assignment (or cached conflict) without consulting the matcher.
  /// `component` scopes the entry: pass the id the substrate is
  /// registered under (0, the default, is the CPU core component).
  Result<std::vector<std::uint32_t>> allocate(
      const Substrate& substrate,
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities, std::uint32_t component = 0);

  Stats stats() const;
  void clear();
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Key {
    std::uint32_t component = 0;
    std::vector<pmu::NativeEventCode> events;
    std::vector<int> priorities;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  struct CachedSolve {
    Error error = Error::kOk;  ///< kOk => assignment is valid
    std::vector<std::uint32_t> assignment;
  };
  using LruList = std::list<std::pair<Key, CachedSolve>>;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// Last-seen allocation generation per component id.
  std::array<std::uint64_t, kMaxComponents> generations_{};
  Stats stats_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
};

}  // namespace papirepro::papi
