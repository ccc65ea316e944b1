// TL1: self-telemetry cost on the counter hot path.  The registry's
// whole design brief is "observability that costs ~nothing": the bump
// path is a relaxed flag load plus a relaxed load/store pair on a
// thread-private cache line, and the trace path one SPSC ring push.
// This bench pins that contract numerically — telemetry-enabled reads
// must stay within 3 % of the disabled baseline, trace-ring recording
// within 10 % — and fails the build (nonzero exit) when the budget is
// blown.  Timing noise is strictly additive, so each scenario reports
// the *minimum* over interleaved repetitions (bench_util.h's harness); a
// small absolute floor keeps single-digit-nanosecond jitter from
// tripping the relative gates on loaded CI runners.  Emits
// BENCH_telemetry_overhead.json.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/telemetry.h"

using namespace papirepro;

namespace {

// Many short reps, not a few long ones (see bench_util.h).
constexpr int kIters = 5'000;
constexpr int kReps = 180;
// Relative budgets, plus an absolute floor: on a ~100 ns call a couple
// of nanoseconds of timer noise is not a regression.
constexpr double kEnabledBudget = 1.03;
constexpr double kTraceBudget = 1.10;
constexpr double kAbsSlackNs = 4.0;

}  // namespace

int main() {
  bench::header("TL1", "self-telemetry hot-path overhead");
  std::printf("min read() CPU ns over %d interleaved reps x %d iters "
              "(sim-x86, cost\ncharging off); gates: enabled <= disabled "
              "x %.2f, trace <= disabled x %.2f\n(+ %.0f ns each), zero "
              "heap allocations:\n\n",
              kReps, kIters, kEnabledBudget, kTraceBudget, kAbsSlackNs);

  bench::LiveRig disabled, enabled, traced;
  disabled.library->telemetry().set_enabled(false);
  const bool trace_set = disabled.library->set_trace(false).ok() &&
                         traced.library->set_trace(true).ok();
  const char* const names[] = {"disabled", "enabled", "trace"};
  std::vector<bench::Op> ops;
  for (bench::LiveRig* rig : {&disabled, &enabled, &traced}) {
    papi::EventSet& set = rig->new_set();
    (void)set.add_preset(papi::Preset::kTotIns);
    (void)set.add_preset(papi::Preset::kTotCyc);
    if (trace_set) (void)rig->start(set);
    ops.push_back(rig->read());
  }
  const std::vector<bench::Stats> stats =
      bench::measure_interleaved(ops, kIters, kReps);

  bench::Report report("telemetry_overhead");
  const bench::Stats& base = stats[0];
  std::printf("%-10s %10s %10s %12s %14s\n", "scenario", "read_ns",
              "median_ns", "read_allocs", "vs_disabled");
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const bench::Stats& s = stats[i];
    std::printf("%-10s %10.1f %10.1f %12.4f %13.3fx\n", names[i], s.min_ns,
                s.median_ns, s.allocs,
                base.min_ns > 0 ? s.min_ns / base.min_ns : 0.0);
    report.stats(names[i], "read", s);
  }

  report.ratio_at_most("enabled_vs_disabled_read", stats[1], base,
                       kEnabledBudget, kAbsSlackNs);
  report.ratio_at_most("trace_vs_disabled_read", stats[2], base,
                       kTraceBudget, kAbsSlackNs);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    report.no_allocs(std::string(names[i]) + "_read_allocs", stats[i]);
  }
  return report.finish();
}
