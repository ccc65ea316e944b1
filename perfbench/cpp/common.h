// Shared plumbing for the benchmark: the run configuration, clocks,
// bounded sample sets, the pass/fail tally, the span recorder, the metric
// report and the monitoring poll pipeline.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregate/collector.h"
#include "aggregate/shm_region.h"
#include "core/eventset.h"

namespace perfbench {

namespace papi = papirepro::papi;
namespace aggregate = papirepro::aggregate;

/// Run-shape constants shared by the workloads.
/// Set-ups per run (setup_s is their median) and the pause before each
/// set-up after the first.  Back-to-back set-ups find the previous one's
/// caches warm and follow the host's momentary speed; after a pause each
/// starts cold, as a program's one set-up does, and the median repeats.
inline constexpr int kSetupReps = 31;
inline constexpr int kSetupPauseMs = 100;
inline constexpr std::int64_t kPollPeriodNs = 500'000;     ///< 2 kHz open loop
inline constexpr std::size_t kPollWindow = 1'000;          ///< polls per window
inline constexpr int kPercentileCheckEvery = 64;           ///< polls
inline constexpr std::int64_t kTraceChunkNs = 100'000'000; ///< traced/untraced

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;     ///< temporary files and the traced run's spans
  int threads = 1;         ///< worker threads allowed: min(nproc, 4)
};

/// How a run's --seconds split into alternating main and side slices.
/// Short slices make both phases sample the host's drifting speed over the
/// whole run; the traced run leaves 40 % of its time to the layer ladder.
struct PhasePlan {
  double main_s;  ///< per slice
  double side_s;  ///< per slice
  int slices;
};
inline PhasePlan phase_plan(const Config& config) {
  const int slices =
      std::max(1, static_cast<int>(std::lround(config.seconds / 1.5)));
  const double main_share = config.trace ? 0.4 : 0.6;
  const double side_share = config.trace ? 0.15 : 0.3;
  return {main_share * config.seconds / slices,
          side_share * config.seconds / slices, slices};
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time the calling thread has run, and how often it gave up the CPU
/// itself (blocked or slept) rather than being preempted.
struct ThreadClock {
  std::int64_t cpu_ns = 0;
  long voluntary_switches = 0;
};
ThreadClock thread_clock();

/// Time a worker loop is charged for: wall time, less the off-CPU time of
/// the ~1 ms intervals in which the thread never gave up the CPU itself.
/// That time the scheduler or the hypervisor took away.  Time the thread
/// spent blocked (a contended lock, a sleep) is a voluntary switch, so it
/// stays charged to the library.
class ChargedClock {
 public:
  static constexpr std::int64_t kIntervalNs = 1'000'000;

  void start(std::int64_t now) {
    begin_ = now;
    clock_ = thread_clock();
  }
  /// Cheap unless an interval has passed; call once per loop iteration.
  void tick(std::int64_t now) {
    if (now - begin_ >= kIntervalNs) close(now);
  }
  /// Closes the last interval; returns the charged time so far.
  std::int64_t stop(std::int64_t now) {
    close(now);
    return charged_ns_;
  }

 private:
  void close(std::int64_t now) {
    const ThreadClock c = thread_clock();
    const std::int64_t wall = now - begin_;
    const std::int64_t cpu = c.cpu_ns - clock_.cpu_ns;
    charged_ns_ += c.voluntary_switches == clock_.voluntary_switches
                       ? std::min(wall, cpu)
                       : wall;
    begin_ = now;
    clock_ = c;
  }

  std::int64_t begin_ = 0;
  ThreadClock clock_;
  std::int64_t charged_ns_ = 0;
};

/// Heap allocations made by the process so far (the benchmark replaces
/// the global operator new to count them).
std::uint64_t allocations() noexcept;
/// Leaves the calling thread's allocations out of allocations(): for a
/// thread that does the benchmark's own work, like draining trace rings.
void uncount_thread_allocations() noexcept;

/// Peak resident set of the process in MB.
double peak_rss_mb();

/// Percentile q in [0, 1] of `v` with linear interpolation between order
/// statistics; 0 for an empty set.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Latency percentiles by window: every `window` samples the window's
/// median and 99th percentile are taken, and the reported figures are the
/// medians of those over all full windows.  A stall that hits a few
/// windows (a descheduled vCPU, a noisy neighbour) then moves the figures
/// far less than it moves one percentile over the whole run.
class Windowed {
 public:
  explicit Windowed(std::size_t window = 4096, std::size_t max_windows = 4096)
      : window_(window) {
    buf_.reserve(window);
    p50s_.reserve(max_windows);
    p99s_.reserve(max_windows);
  }
  void add(double x) {
    buf_.push_back(x);
    if (buf_.size() == window_) close();
  }
  const std::vector<double>& window_p50s() const noexcept { return p50s_; }
  const std::vector<double>& window_p99s() const noexcept { return p99s_; }
  /// Samples of the window still open.
  const std::vector<double>& partial() const noexcept { return buf_; }

 private:
  void close();

  std::size_t window_;
  std::vector<double> buf_;
  std::vector<double> p50s_, p99s_;
};

/// The median of the window figures of `parts` pooled together (a part
/// with no full window adds its samples' own percentile); 0 when every
/// part is empty.
double pooled(const std::vector<const Windowed*>& parts, bool p99);
/// Interquartile range of the pooled window medians.
double pooled_iqr(const std::vector<const Windowed*>& parts);
inline double p50(const Windowed& w) { return pooled({&w}, false); }
inline double p99(const Windowed& w) { return pooled({&w}, true); }

/// Operations attempted and failed.  A failed output check counts as a
/// failed operation, like a call that returned an error.
class Tally {
 public:
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_.fetch_add(attempted, std::memory_order_relaxed);
    failed_.fetch_add(failed, std::memory_order_relaxed);
  }
  void op(int rc) { ops(1, rc != 0 ? 1 : 0); }
  /// Counts one check; prints the first few failures to stderr.
  bool check(bool ok, const char* what, double got = 0, double want = 0);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<int> printed_{0};
};

/// In-memory span recorder, one per thread.  A span has a name, start,
/// end, parent span and the id of the operation it belongs to; spans of
/// one operation share that id.  Full recorders count drops instead of
/// growing.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t calls;  ///< library calls the span covers
  };

  SpanRecorder(std::uint32_t recorder_id, std::size_t capacity);
  /// Records a span and returns its id (0 when dropped).
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint64_t op, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t calls = 1);
  /// Records a span under an id taken earlier from next_id(), so a
  /// parent can be written after its children.
  void record_with_id(std::uint64_t id, const char* name,
                      std::uint64_t parent, std::uint64_t op,
                      std::int64_t start_ns, std::int64_t end_ns,
                      std::uint32_t calls = 1);
  /// A fresh span id, unique across recorders.
  std::uint64_t next_id() { return (std::uint64_t{id_} << 40) | ++next_; }
  /// A fresh operation id, unique across recorders.
  std::uint64_t next_op() { return (std::uint64_t{id_} << 40) | ++ops_; }
  std::uint64_t drops() const noexcept { return drops_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint32_t id_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t drops_ = 0;
};

/// Writes every recorder's spans as CSV; false when the file cannot be
/// written.
bool write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<SpanRecorder>>& recorders);

/// Metrics by name, printed in insertion order.
class Report {
 public:
  void set(const std::string& name, double value, const char* unit);
  void print_human(std::FILE* out) const;
  std::string json_metrics() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> index_;
};

/// Prints the host fingerprint line (CPU, nproc, compiler, build type,
/// perf_event_paranoid, hardware events permitted).
void print_host_fingerprint(std::FILE* out, bool hw_events_permitted);

/// One monitoring poll after the snapshot: rank-run wire frames (fan-in
/// 32) -> Collector::ingest -> reduce -> SharedSnapshotRegion::publish ->
/// read_into, with the reduction checked against a sequential oracle over
/// the same snapshot and the region read checked against the reduction.
class PollPipeline {
 public:
  static constexpr std::uint32_t kMetrics = 2;
  static constexpr std::uint32_t kFanIn = 32;

  explicit PollPipeline(std::uint32_t max_ranks);

  /// Runs every stage after the snapshot over `entries`/`values`.
  void run(std::span<const papi::SnapshotEntry> entries,
           std::span<const long long> values, std::uint64_t now_cycles);
  /// Checks the last run() (each check is counted in `tally`).
  /// Percentile checks run only when `check_percentiles`: they sort the
  /// population.
  void verify(std::span<const papi::SnapshotEntry> entries,
              std::span<const long long> values, Tally& tally,
              bool check_percentiles);

  // Stages, for the layer ladder.
  void encode(std::span<const papi::SnapshotEntry> entries,
              std::span<const long long> values);
  std::size_t ingest() { return collector_.ingest(wire_); }
  const aggregate::ClusterReduction& reduce(std::uint64_t now_cycles) {
    return collector_.reduce(now_cycles);
  }
  void publish() { region_.publish(collector_.cluster()); }
  bool read_region() { return region_.read_into(region_snapshot_); }

  std::size_t wire_bytes() const noexcept { return wire_.size(); }
  const aggregate::CollectorStats& stats() const noexcept {
    return collector_.stats();
  }

 private:
  aggregate::Collector collector_;
  aggregate::SharedSnapshotRegion region_;
  aggregate::RegionSnapshot region_snapshot_;
  std::vector<std::uint8_t> wire_;
  std::vector<long long> oracle_values_;
  std::size_t frames_accepted_ = 0;
  bool region_ok_ = false;
};

/// Spins until `due_ns`.  The poller owns its core: a sleeping poller's
/// wake-up waits for a free core, which would put scheduler latency into
/// every open-loop poll time.
void wait_until(std::int64_t due_ns);

}  // namespace perfbench
