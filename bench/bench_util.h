// Shared helpers for the experiment harness binaries.  Each bench binary
// regenerates one paper artifact (figure or quantified claim) as a
// printed table; EXPERIMENTS.md records paper-vs-measured per id.
//
// Every bench that times or gates uses the one method below: the calling
// thread's CPU clock, reps run round-robin across the scenarios being
// compared (so host drift lands on all of them alike, and a ratio gate
// compares figures taken side by side rather than seconds apart), the
// minimum over reps as the gated estimate (timing noise only ever adds),
// and one JSON report whose gates decide the exit code.  A ratio gate is
// only as good as both minima: where a bench can, it takes many short
// reps (windows well under a millisecond) rather than a few long ones,
// because a shared VM's speed switches about 2x between episodes lasting
// around a millisecond, and short windows give every compared scenario
// the same chance of landing in a fast one.
#pragma once

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/eventset.h"
#include "core/library.h"
#include "sim/kernels.h"
#include "substrate/sim_substrate.h"

#ifndef PAPIREPRO_BUILD_TYPE
#define PAPIREPRO_BUILD_TYPE "unknown"
#endif

namespace papirepro::test {
/// Operator-new calls made by the calling thread so far.  The
/// counting hook is tests/alloc_hook.cpp, linked into every bench binary
/// and into the test binary.
std::uint64_t thread_allocation_count();
}  // namespace papirepro::test

namespace papirepro::bench {

/// Machine + substrate + library over a workload.
struct Rig {
  sim::Workload workload;
  std::unique_ptr<sim::Machine> machine;
  papi::SimSubstrate* substrate = nullptr;  // owned by library
  std::unique_ptr<papi::Library> library;

  Rig(sim::Workload w, const pmu::PlatformDescription& platform,
      papi::SimSubstrateOptions options = {})
      : workload(std::move(w)) {
    machine = std::make_unique<sim::Machine>(workload.program,
                                             platform.machine);
    if (workload.setup) workload.setup(*machine);
    auto sub = std::make_unique<papi::SimSubstrate>(*machine, platform,
                                                    options);
    substrate = sub.get();
    library = std::make_unique<papi::Library>(std::move(sub));
  }

  papi::EventSet& new_set() {
    auto handle = library->create_event_set();
    return *library->event_set(handle.value()).value();
  }

  double overhead_fraction() const {
    return machine->cycles() == 0
               ? 0.0
               : static_cast<double>(machine->overhead_cycles()) /
                     static_cast<double>(machine->cycles());
  }
};

/// One Library shared by `threads` threads, each bound to its own
/// machine over a tiny workload (sim-x86, cost charging off, so the
/// clock measures the library layer and not the syscall model).
struct SharedRig {
  std::vector<std::unique_ptr<sim::Machine>> machines;
  papi::SimSubstrate* substrate = nullptr;  // owned by library
  std::unique_ptr<papi::Library> library;

  explicit SharedRig(int threads) {
    for (int t = 0; t < threads; ++t) {
      machines.push_back(std::make_unique<sim::Machine>(
          sim::make_empty_loop(10).program, pmu::sim_x86().machine));
    }
    auto sub = std::make_unique<papi::SimSubstrate>(
        *machines[0], pmu::sim_x86(),
        papi::SimSubstrateOptions{.charge_costs = false});
    substrate = sub.get();
    library = std::make_unique<papi::Library>(std::move(sub));
  }

  /// Binds the calling thread to machine `t` and returns a new EventSet
  /// counting PAPI_TOT_INS on it.
  papi::EventSet& thread_set(int t) {
    substrate->bind_thread_machine(*machines[t]);
    auto handle = library->create_event_set();
    papi::EventSet& set = *library->event_set(handle.value()).value();
    (void)set.add_preset(papi::Preset::kTotIns);
    return set;
  }
};

inline void header(const char* id, const char* title) {
  std::printf("\n==============================================================="
              "=========\n");
  std::printf("%s: %s\n", id, title);
  std::printf("================================================================"
              "========\n");
}

inline double rel_error(double measured, double expected) {
  if (expected == 0) return measured == 0 ? 0.0 : 1.0;
  return std::abs(measured - expected) / expected;
}

// --- timing harness --------------------------------------------------------

/// CPU nanoseconds consumed by the calling thread.  Scheduler waits and
/// other tenants' work do not count, so an oversubscribed or shared host
/// still measures the code rather than the run queue.  Falls back to wall
/// time where the thread clock is unavailable.
inline std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One rep of one scenario: ns and heap allocations per call.  A
/// negative `ns` means the scenario did not run.
struct Sample {
  double ns = -1;
  double allocs = 0;
};

/// One scenario over all its reps.  Gates read `min_ns`; the median and
/// the p10/p90 spread are reported only.  `ran` is false when the
/// scenario could not be set up or a rep produced no sample, and every
/// gate that reads such a scenario is red.
struct Stats {
  bool ran = false;
  double min_ns = 0;
  double median_ns = 0;
  double p10_ns = 0;
  double p90_ns = 0;
  double allocs = 0;  ///< heap allocations per call, mean over reps
};

/// Quantile `q` of ascending `sorted`, interpolated linearly between the
/// two nearest ranks.
inline double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) *
                          (sorted[hi] - sorted[lo]);
}

/// Reduces one scenario's per-rep samples; a missing sample (or none at
/// all) marks the scenario as not run.
inline Stats summarize(const std::vector<Sample>& samples) {
  Stats s;
  std::vector<double> ns;
  double allocs = 0;
  for (const Sample& x : samples) {
    if (!(x.ns >= 0)) return s;
    ns.push_back(x.ns);
    allocs += x.allocs;
  }
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  s.ran = true;
  s.min_ns = ns.front();
  s.median_ns = quantile(ns, 0.5);
  s.p10_ns = quantile(ns, 0.1);
  s.p90_ns = quantile(ns, 0.9);
  s.allocs = allocs / static_cast<double>(ns.size());
  return s;
}

/// Produces one sample of one scenario per call.
using Sampler = std::function<Sample()>;

/// The one rep loop: calls every sampler once per rep, round-robin, and
/// returns one Stats per sampler, in order.
inline std::vector<Stats> interleave(const std::vector<Sampler>& samplers,
                                     int reps) {
  std::vector<std::vector<Sample>> samples(samplers.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < samplers.size(); ++i) {
      samples[i].push_back(samplers[i]());
    }
  }
  std::vector<Stats> stats;
  for (const std::vector<Sample>& s : samples) stats.push_back(summarize(s));
  return stats;
}

/// A measured call: op(n) makes n calls of the callable it was built
/// from.  The callable is inlined into that loop, so the type erasure
/// costs one indirect call per rep and none per call.  A
/// default-constructed Op is a scenario whose set-up failed.
class Op {
 public:
  Op() = default;
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_v<F&>>>
  Op(F f)  // implicit: ops are written as lambdas in brace lists
      : run_([f](int n) mutable {
          for (int i = 0; i < n; ++i) f();
        }) {}

  explicit operator bool() const { return static_cast<bool>(run_); }
  void operator()(int n) const { run_(n); }

 private:
  std::function<void(int)> run_;
};

/// A Rig (by default an empty loop on sim-x86 with cost charging off, so
/// the clock measures the library layer and not the syscall model) with
/// one EventSet to time.  Its ops are empty, so their scenario does not
/// run, unless start() succeeded; they hold the rig's address, so it
/// neither copies nor moves.
struct LiveRig : Rig {
  papi::EventSet* set = nullptr;
  std::vector<long long> values;
  std::vector<std::uint32_t> flags;

  using Rig::Rig;
  LiveRig()
      : Rig(sim::make_empty_loop(10), pmu::sim_x86(),
            {.charge_costs = false}) {}
  LiveRig(const LiveRig&) = delete;
  LiveRig& operator=(const LiveRig&) = delete;

  /// Starts `s` and sizes the buffers its ops read into.
  bool start(papi::EventSet& s) {
    if (!s.start().ok()) return false;
    set = &s;
    values.assign(s.num_events(), 0);
    flags.assign(s.num_events(), 0);
    return true;
  }
  Op read() {
    return set ? Op([this] { (void)set->read(values); }) : Op();
  }
  Op accum() {
    return set ? Op([this] { (void)set->accum(values); }) : Op();
  }
  Op read_ex() {
    return set ? Op([this] { (void)set->read_ex(values, flags); }) : Op();
  }
};

/// Times `n` calls of `op` on the calling thread's CPU clock, and counts
/// the heap allocations the calling thread makes meanwhile (other
/// threads measuring at the same time are not charged to it).
inline Sample time_calls(const Op& op, int n) {
  if (!op) return {};
  const std::uint64_t a0 = test::thread_allocation_count();
  const std::uint64_t t0 = thread_cpu_ns();
  op(n);
  const std::uint64_t t1 = thread_cpu_ns();
  const std::uint64_t a1 = test::thread_allocation_count();
  return {static_cast<double>(t1 - t0) / static_cast<double>(n),
          static_cast<double>(a1 - a0) / static_cast<double>(n)};
}

/// Warms every op up (scratch capacities, caches, first touch), then
/// times `iters` calls of each op per rep, reps interleaved across ops.
/// Returns one Stats per op, in order.
inline std::vector<Stats> measure_interleaved(const std::vector<Op>& ops,
                                              int iters, int reps) {
  constexpr int kWarmupCalls = 64;
  std::vector<Sampler> samplers;
  for (const Op& op : ops) {
    if (op) op(kWarmupCalls);
    samplers.push_back([&op, iters] { return time_calls(op, iters); });
  }
  return interleave(samplers, reps);
}

/// Runs fn(t, arm) on n threads, t = 0..n-1, and joins them.  Each thread
/// sets up, then calls arm(), which blocks until every thread has armed
/// or returned, so the measured windows overlap and contention (if any)
/// is exercised.  A thread that returns without arming leaves the
/// barrier: one failed set-up never strands the others.
template <typename Fn>
void run_threads(int n, Fn fn) {
  std::barrier<> gate(n);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&gate, &fn, t] {
      bool armed = false;
      const auto arm = [&] {
        armed = true;
        gate.arrive_and_wait();
      };
      fn(t, arm);
      if (!armed) gate.arrive_and_drop();
    });
  }
  for (std::thread& th : threads) th.join();
}

// --- report ----------------------------------------------------------------

/// One bench's result, written as BENCH_<name>.json:
///
///   {"bench": name,
///    "host": {"cpu", "nproc", "compiler", "build_type"},
///    "scenarios": {scenario: {key: number | timing | null}},
///    "gates": [{"name", "value", "bound", "ok"}]}
///
/// where a timing is {"min_ns", "median_ns", "p10_ns", "p90_ns",
/// "allocs"} and null marks a scenario that did not run.  The exit code
/// finish() returns is nonzero if and only if a gate is red.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  /// Records a plain figure of `scenario`.
  template <typename T>
  void value(const std::string& scenario, const std::string& key, T v) {
    add(scenario, key, number(static_cast<double>(v)));
  }

  /// Records a timed figure of `scenario`.
  void stats(const std::string& scenario, const std::string& key,
             const Stats& s) {
    add(scenario, key,
        s.ran ? "{\"min_ns\": " + number(s.min_ns) +
                    ", \"median_ns\": " + number(s.median_ns) +
                    ", \"p10_ns\": " + number(s.p10_ns) +
                    ", \"p90_ns\": " + number(s.p90_ns) +
                    ", \"allocs\": " + number(s.allocs) + "}"
              : "null");
  }

  /// Records a gate, red when `ok` is false or when any of `inputs` did
  /// not run.  Returns whether it is green.
  bool gate(const std::string& name, double value, double bound, bool ok,
            std::initializer_list<Stats> inputs = {}) {
    for (const Stats& s : inputs) ok = ok && s.ran;
    gates_.push_back({name, value, bound, ok});
    return ok;
  }

  /// Gate: min(s) <= bound_ns.
  bool at_most(const std::string& name, const Stats& s, double bound_ns) {
    return gate(name, s.min_ns, bound_ns, s.min_ns <= bound_ns, {s});
  }

  /// Gate: min(num) <= factor * min(den) + slack_ns, both mins from the
  /// same interleaved reps.  Value and bound are reported as ratios to
  /// min(den).
  bool ratio_at_most(const std::string& name, const Stats& num,
                     const Stats& den, double factor,
                     double slack_ns = 0) {
    const double base = den.min_ns > 0 ? den.min_ns : 1;
    return gate(name, num.min_ns / base, factor + slack_ns / base,
                num.min_ns <= factor * den.min_ns + slack_ns, {num, den});
  }

  /// Gate: zero heap allocations per call in every rep of `s`.
  bool no_allocs(const std::string& name, const Stats& s) {
    return gate(name, s.allocs, 0, s.allocs == 0, {s});
  }

  /// Prints every gate, writes BENCH_<name>.json into `dir` and returns
  /// the exit code: 0 when every gate is green, 1 otherwise.
  int finish(const std::filesystem::path& dir = ".") const {
    int red = 0;
    std::printf("\n");
    for (const Gate& g : gates_) {
      std::printf("gate %-34s %12.4g  bound %12.4g  %s\n", g.name.c_str(),
                  g.value, g.bound, g.ok ? "ok" : "RED");
      red += g.ok ? 0 : 1;
    }
    const std::filesystem::path path = dir / ("BENCH_" + name_ + ".json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"host\": {\"cpu\": \"%s\", "
                 "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
                 "\"%s\"},\n  \"scenarios\": {",
                 name_.c_str(), cpu_model().c_str(),
                 std::thread::hardware_concurrency(), compiler().c_str(),
                 PAPIREPRO_BUILD_TYPE);
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": {%s}", i ? "," : "",
                   scenarios_[i].first.c_str(),
                   scenarios_[i].second.c_str());
    }
    std::fprintf(f, "\n  },\n  \"gates\": [");
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const Gate& g = gates_[i];
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"value\": %s, \"bound\": "
                   "%s, \"ok\": %s}",
                   i ? "," : "", g.name.c_str(), number(g.value).c_str(),
                   number(g.bound).c_str(), g.ok ? "true" : "false");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("%zu gates, %d red; JSON written to %s\n", gates_.size(),
                red, path.c_str());
    return red == 0 ? 0 : 1;
  }

 private:
  struct Gate {
    std::string name;
    double value;
    double bound;
    bool ok;
  };

  void add(const std::string& scenario, const std::string& key,
           const std::string& json) {
    auto it = std::find_if(scenarios_.begin(), scenarios_.end(),
                           [&](const auto& s) { return s.first == scenario; });
    if (it == scenarios_.end()) {
      scenarios_.emplace_back(scenario, std::string());
      it = scenarios_.end() - 1;
    }
    if (!it->second.empty()) it->second += ", ";
    it->second += "\"" + key + "\": " + json;
  }

  /// JSON has no NaN or infinity; such a figure is written as null.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }

  /// The "model name" of /proc/cpuinfo, less anything JSON would have
  /// to escape.
  static std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
      const std::size_t colon = line.find(": ");
      if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
        std::string model = line.substr(colon + 2);
        std::erase_if(model, [](unsigned char c) {
          return c == '"' || c == '\\' || c < 0x20;
        });
        return model;
      }
    }
    return "unknown";
  }

  static std::string compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#else
    return "gcc " __VERSION__;
#endif
  }

  std::string name_;
  /// Scenario name -> its JSON members, in insertion order.
  std::vector<std::pair<std::string, std::string>> scenarios_;
  std::vector<Gate> gates_;
};

}  // namespace papirepro::bench
