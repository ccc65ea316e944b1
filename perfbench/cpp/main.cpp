// perfbench: the repository benchmark.
//
//   perfbench --workload <counting|monitoring|regions>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a human-readable report, a host fingerprint line and, as the
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run is traced (spans written to <out-dir>) and the
// metrics are the per-layer ones.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include "substrate/perf_event_substrate.h"
#include "workloads.h"

// --- global operator new counting ------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
/// Set on a thread whose allocations are the benchmark's own.
thread_local bool t_uncounted = false;
void count_allocation() noexcept {
  if (!t_uncounted) g_allocations.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_allocation();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

void uncount_thread_allocations() noexcept { t_uncounted = true; }

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<counting|monitoring|regions> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of returning it to the kernel:
  // every set-up repetition would otherwise fault in fresh zeroed pages,
  // and on a shared host that kernel work, not the library's, sets
  // setup_s.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Config config;
  config.out_dir = ".";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--out-dir") {
      config.out_dir = value;
    } else {
      return usage("unknown argument");
    }
    if (end != nullptr && *end != '\0') return usage("malformed number");
  }
  if (argc % 2 == 0) return usage("every option takes a value");
  if (!have_workload) return usage("--workload is required");
  if (config.workload != "counting" &&
      config.workload != "monitoring" && config.workload != "regions") {
    return usage("unknown workload");
  }
  if (!(config.seconds > 0) || config.seconds > 120) {
    return usage("--seconds must be in (0, 120]");
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // One vCPU is left to the rest of the system (see sim_workloads.cpp).
  config.threads = static_cast<int>(std::clamp(nproc - 1, 1u, 4u));

  print_host_fingerprint(stdout,
                         papi::PerfEventSubstrate().hardware_available());

  Report report;
  Tally tally;
  SpanSet spans;
  TracedRead traced;
  run_sim_workload(config, report, tally, spans, traced);
  const double overhead =
      fixed_work_pass(config.workload == "regions" ? "sim-power3" : "sim-x86",
                      config.workload == "counting", config.seed, tally);

  if (!config.trace) {
    report.set("sim_overhead_ratio", overhead, "ratio");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    auto ladder = std::make_unique<SpanRecorder>(100, 1 << 16);
    run_layers(config, traced, report, tally, *ladder);
    spans.push_back(std::move(ladder));
    // Tracing overhead: read_ns_p50 over the traced chunks minus over the
    // untraced ones, same process, same sets.
    report.set("trace.overhead_ns",
               traced.traced_p50_ns - traced.untraced_p50_ns, "ns");
    // One file per workload: the latest traced run's spans.
    const std::string path =
        config.out_dir + "/spans-" + config.workload + ".csv";
    if (!write_spans(path, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    std::uint64_t drops = 0;
    for (const auto& r : spans) drops += r->drops();
    std::printf("spans: %s (%llu dropped when recorders filled)\n",
                path.c_str(), static_cast<unsigned long long>(drops));
  }

  std::printf("%s seed %llu, %s run:\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced");
  report.print_human(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  tally.attempted(), 1)),
              static_cast<unsigned long long>(tally.failed()),
              report.json_metrics().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main(argc, argv); }
