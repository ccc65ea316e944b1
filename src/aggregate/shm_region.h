// Seqlock-published snapshot region for out-of-process polling.  The
// collector refreshes it after each reduce(); readers — another thread,
// or another process when the region is placed in a MAP_SHARED mapping
// — copy the latest cluster reduction without syscalls, locks, or any
// interaction with the counting threads.
//
// Memory-ordering contract (the EventSet::Published pattern, restated
// for a region that may cross a process boundary):
//   * single writer: exactly one thread publishes; seq is odd while a
//     write is open and even when the region is consistent.
//   * writer: store seq+1 relaxed, release fence, relaxed data stores,
//     store seq+2 release.
//   * reader: load seq acquire (spin past odd), relaxed data loads,
//     acquire fence, re-load seq relaxed — equal means the copy is
//     consistent; otherwise retry (bounded, then report failure).
//   * every field is a lock-free std::atomic on a standard-layout
//     struct, so concurrent access is race-free (TSan-clean) and the
//     bytes are meaningful across processes sharing the mapping.
#pragma once

#include <atomic>
#include <cstdint>

#include "aggregate/collector.h"

namespace papirepro::aggregate {

inline constexpr std::uint32_t kRegionMagic = 0x52534350u;  // "PCSR"
inline constexpr std::uint32_t kRegionVersion = 1;

/// What a reader copies out of the region: the reduction that was
/// published, in the collector's own types.
using RegionMetric = MetricStats;
using RegionSnapshot = ClusterReduction;

class SharedSnapshotRegion {
 public:
  SharedSnapshotRegion() noexcept {
    magic_.store(kRegionMagic, std::memory_order_relaxed);
    version_.store(kRegionVersion, std::memory_order_release);
  }

  SharedSnapshotRegion(const SharedSnapshotRegion&) = delete;
  SharedSnapshotRegion& operator=(const SharedSnapshotRegion&) = delete;

  bool valid() const noexcept {
    return magic_.load(std::memory_order_relaxed) == kRegionMagic &&
           version_.load(std::memory_order_relaxed) == kRegionVersion;
  }

  /// Publishes `reduction` (single writer — the collector's thread).
  void publish(const ClusterReduction& reduction) noexcept {
    const std::uint32_t s = seq_shadow_;
    seq_shadow_ = s + 2;
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    reduce_count_.store(reduction.reduce_count, std::memory_order_relaxed);
    now_cycles_.store(reduction.now_cycles, std::memory_order_relaxed);
    ranks_live_.store(reduction.ranks_live, std::memory_order_relaxed);
    ranks_stale_.store(reduction.ranks_stale, std::memory_order_relaxed);
    const std::uint32_t m =
        reduction.num_metrics <= kMaxMetrics
            ? reduction.num_metrics
            : static_cast<std::uint32_t>(kMaxMetrics);
    num_metrics_.store(m, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < m; ++i) {
      const MetricStats& ms = reduction.metrics[i];
      MetricCells& c = metrics_[i];
      c.min.store(ms.min, std::memory_order_relaxed);
      c.max.store(ms.max, std::memory_order_relaxed);
      c.sum.store(ms.sum, std::memory_order_relaxed);
      c.avg_bits.store(bit_cast_u64(ms.avg), std::memory_order_relaxed);
      c.count.store(ms.count, std::memory_order_relaxed);
      c.p50.store(ms.p50, std::memory_order_relaxed);
      c.p95.store(ms.p95, std::memory_order_relaxed);
      c.p99.store(ms.p99, std::memory_order_relaxed);
    }
    seq_.store(s + 2, std::memory_order_release);
  }

  /// Copies the latest consistent snapshot into `out`.  Returns false
  /// when `max_attempts` seqlock brackets all raced the writer (the
  /// caller keeps its previous copy) or the region header is invalid.
  bool read_into(ClusterReduction& out,
                 int max_attempts = 64) const noexcept {
    if (!valid()) return false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      const std::uint32_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1u) != 0) continue;  // write in progress
      out.reduce_count = reduce_count_.load(std::memory_order_relaxed);
      out.now_cycles = now_cycles_.load(std::memory_order_relaxed);
      out.ranks_live = ranks_live_.load(std::memory_order_relaxed);
      out.ranks_stale = ranks_stale_.load(std::memory_order_relaxed);
      std::uint32_t m = num_metrics_.load(std::memory_order_relaxed);
      if (m > kMaxMetrics) m = static_cast<std::uint32_t>(kMaxMetrics);
      out.num_metrics = m;
      for (std::uint32_t i = 0; i < m; ++i) {
        const MetricCells& c = metrics_[i];
        MetricStats& rm = out.metrics[i];
        rm.min = c.min.load(std::memory_order_relaxed);
        rm.max = c.max.load(std::memory_order_relaxed);
        rm.sum = c.sum.load(std::memory_order_relaxed);
        rm.avg = bit_cast_double(
            c.avg_bits.load(std::memory_order_relaxed));
        rm.count = c.count.load(std::memory_order_relaxed);
        rm.p50 = c.p50.load(std::memory_order_relaxed);
        rm.p95 = c.p95.load(std::memory_order_relaxed);
        rm.p99 = c.p99.load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return true;
    }
    return false;
  }

  /// Publications so far (readers poll this to detect fresh data).
  std::uint64_t publications() const noexcept {
    return reduce_count_.load(std::memory_order_acquire);
  }

 private:
  /// double <-> u64 through atomics: the region only stores integral
  /// atomic cells so every field has the same lock-free guarantees.
  static std::uint64_t bit_cast_u64(double d) noexcept {
    return __builtin_bit_cast(std::uint64_t, d);
  }
  static double bit_cast_double(std::uint64_t u) noexcept {
    return __builtin_bit_cast(double, u);
  }

  struct MetricCells {
    std::atomic<long long> min{0};
    std::atomic<long long> max{0};
    std::atomic<long long> sum{0};
    std::atomic<std::uint64_t> avg_bits{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> p50{0};
    std::atomic<std::uint64_t> p95{0};
    std::atomic<std::uint64_t> p99{0};
  };

  std::atomic<std::uint32_t> magic_{0};
  std::atomic<std::uint32_t> version_{0};
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint32_t> num_metrics_{0};
  std::atomic<std::uint64_t> reduce_count_{0};
  std::atomic<std::uint64_t> now_cycles_{0};
  std::atomic<std::uint32_t> ranks_live_{0};
  std::atomic<std::uint32_t> ranks_stale_{0};
  std::array<MetricCells, kMaxMetrics> metrics_{};
  /// Writer-private shadow of seq_ (same idiom as EventSet's
  /// pub_seq_shadow_): the single writer bumps this plain copy instead
  /// of re-loading the atomic.
  std::uint32_t seq_shadow_ = 0;
};

}  // namespace papirepro::aggregate
