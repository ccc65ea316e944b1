// TS1: hot-path cost of the thread-aware library — nanoseconds per
// start/read/stop call when 1..64 threads hammer one shared Library
// concurrently, each through its own CounterContext.  The contention-free
// registry claims the counter hot path shares no mutable state between
// threads and takes zero lock-prefixed instructions; if that holds,
// per-call cost stays flat as threads are added.
//
// Measurement uses the thread-CPU clock, not wall clock: at 16/32/64
// threads the machine is oversubscribed and wall time measures the
// scheduler, not the library.  CPU time per call is the honest scaling
// signal — cross-thread contention (lock waits show as spinning,
// cache-line ping-pong as stalls) inflates it, scheduling delay does not.
// Every thread count runs once per rep, reps interleaved across counts,
// so the 1-thread and 64-thread figures the gate compares are taken side
// by side rather than seconds apart.
//
// Emits BENCH_thread_scaling.json and exit-gates the headline claim:
// per-read CPU cost at 64 threads within 1.25x of single-threaded.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace papirepro;

namespace {

constexpr int kReps = 5;
// Every sample times the same kWorkers threads, n of them at a time, so
// the 1-thread and the 64-thread figures are means over equally many
// measured windows and differ only in how many threads run at once.
constexpr int kWorkers = 64;
constexpr int kReadIters = 20'000;
constexpr int kPairIters = 2'000;

/// One sample at `num_threads` threads: the mean over the workers of
/// each one's CPU ns per read (or per start+stop pair).  Not run when
/// any worker's set failed to start.
bench::Sample run_at(int num_threads, bool start_stop) {
  bench::SharedRig rig(kWorkers);
  std::vector<bench::Sample> per_worker(kWorkers);
  for (int first = 0; first < kWorkers; first += num_threads) {
    bench::run_threads(num_threads, [&](int t, const auto& arm) {
      const int w = first + t;
      papi::EventSet& set = rig.thread_set(w);
      if (!set.start().ok()) return;
      long long v[1];
      if (start_stop) (void)set.stop();
      arm();
      per_worker[w] =
          start_stop ? bench::time_calls(
                           [&] {
                             (void)set.start();
                             (void)set.stop();
                           },
                           kPairIters)
                     : bench::time_calls([&] { (void)set.read(v); },
                                         kReadIters);
      if (!start_stop) (void)set.stop();
      (void)rig.library->destroy_event_set(set.handle());
      (void)rig.library->unregister_thread();
    });
  }
  bench::Sample mean{0, 0};
  for (const bench::Sample& s : per_worker) {
    if (s.ns < 0) return {};
    mean.ns += s.ns / kWorkers;
    mean.allocs += s.allocs / kWorkers;
  }
  return mean;
}

}  // namespace

int main() {
  bench::header("TS1", "per-thread hot-path cost vs thread count");
  std::printf("mean CPU ns per call (min of %d interleaved reps), each "
              "thread driving\nits own EventSet through one shared "
              "Library (sim-x86, cost charging\noff):\n\n", kReps);
  const std::vector<int> counts = {1, 2, 4, 8, 16, 32, 64};
  std::vector<bench::Sampler> samplers;
  for (const bool start_stop : {false, true}) {
    for (const int n : counts) {
      samplers.push_back([n, start_stop] { return run_at(n, start_stop); });
    }
  }
  const std::vector<bench::Stats> stats = bench::interleave(samplers, kReps);
  const std::size_t k = counts.size();

  bench::Report report("thread_scaling");
  std::printf("%8s %14s %18s\n", "threads", "read_cpu_ns",
              "start+stop_cpu_ns");
  for (std::size_t i = 0; i < k; ++i) {
    std::printf("%8d %14.1f %18.1f\n", counts[i], stats[i].min_ns,
                stats[k + i].min_ns);
    const std::string name = "threads_x" + std::to_string(counts[i]);
    report.stats(name, "read", stats[i]);
    report.stats(name, "start_stop", stats[k + i]);
  }
  std::printf("\nFlat columns = the counter hot path stays per-thread "
              "(lock-free\nregistry scans + uncontended CAS); growth "
              "would mean cross-thread\ncontention crept back in.\n");

  // Per-read CPU cost at 64 threads within 1.25x of the single-thread
  // baseline.  CPU time excludes scheduler wait, so this holds on
  // oversubscribed CI boxes iff the read path truly shares no contended
  // state.
  report.ratio_at_most("read_x64_vs_x1", stats[k - 1], stats[0], 1.25);
  return report.finish();
}
