#include "core/allocation_cache.h"

#include "substrate/substrate.h"

namespace papirepro::papi {

namespace {

// FNV-1a over the key's scalar contents.
inline void hash_mix(std::size_t& h, std::uint64_t v) noexcept {
  h ^= static_cast<std::size_t>(v);
  h *= 0x100000001b3ULL;
}

}  // namespace

std::size_t AllocationCache::KeyHash::operator()(
    const Key& key) const noexcept {
  std::size_t h = 0xcbf29ce484222325ULL;
  hash_mix(h, key.component);
  hash_mix(h, key.events.size());
  for (const pmu::NativeEventCode code : key.events) hash_mix(h, code);
  hash_mix(h, key.priorities.size());
  for (const int p : key.priorities) {
    hash_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p)));
  }
  return h;
}

AllocationCache::AllocationCache(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

Result<std::vector<std::uint32_t>> AllocationCache::allocate(
    const Substrate& substrate,
    std::span<const pmu::NativeEventCode> events,
    std::span<const int> priorities, std::uint32_t component) {
  if (component >= kMaxComponents) return Error::kNoComponent;
  Key key{component,
          {events.begin(), events.end()},
          {priorities.begin(), priorities.end()}};
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t generation = substrate.allocation_generation();
  if (generation != generations_[component]) {
    // This component's allocation rules moved under us (estimation
    // toggle, uncore reconfiguration): its cached outcomes are suspect.
    // Other components' rules did not move, so only this component's
    // entries are dropped.
    bool erased = false;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->first.component == component) {
        index_.erase(it->first);
        it = lru_.erase(it);
        erased = true;
      } else {
        ++it;
      }
    }
    if (erased) ++stats_.invalidations;
    generations_[component] = generation;
  }

  if (const auto it = index_.find(key); it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    const CachedSolve& solve = it->second->second;
    if (solve.error != Error::kOk) return solve.error;
    return std::vector<std::uint32_t>(solve.assignment);
  }

  ++stats_.misses;
  auto solved = substrate.allocate(events, priorities);
  CachedSolve entry;
  if (solved.ok()) {
    entry.assignment = solved.value();
  } else {
    entry.error = solved.error();
  }
  lru_.emplace_front(std::move(key), std::move(entry));
  index_.emplace(lru_.front().first, lru_.begin());
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return solved;
}

AllocationCache::Stats AllocationCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = index_.size();
  return out;
}

void AllocationCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_ = Stats{};
  generations_.fill(0);
}

}  // namespace papirepro::papi
