// HO1: cost of the component health monitor on the counter hot path.
// The breaker brackets every slice operation with admit()/record() — two
// relaxed atomic loads when the component is healthy — so the steady-
// state read must not regress: the gate holds the health-enabled direct
// read within 5% of the health-disabled read (the two timed in the same
// interleaved reps) and every row at zero heap allocations.  Also
// measures what the breaker buys: the fail-fast rejection path against a
// quarantined component (the alternative is a full retry ladder per
// call).  Emits BENCH_health_overhead.json for trend tracking, exit code
// 1 on gate failure.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/health.h"
#include "substrate/component_substrates.h"
#include "substrate/fault_substrate.h"

using namespace papirepro;

namespace {

// Many short reps, not a few long ones (see bench_util.h).
constexpr int kIters = 5'000;
constexpr int kReps = 100;

/// Direct single-component read with the health layer in the given
/// state.  The two scenarios differ only in HealthPolicy::enabled.
bench::Op setup_direct(bench::LiveRig& rig, bool health_enabled) {
  papi::HealthPolicy policy;
  policy.enabled = health_enabled;
  (void)rig.library->set_health_policy(policy);
  papi::EventSet& set = rig.new_set();
  (void)set.add_preset(papi::Preset::kTotIns);
  (void)set.add_preset(papi::Preset::kTotCyc);
  (void)rig.start(set);
  return rig.read();
}

/// Spanning cpu+mem read_ex with everything healthy: the partial-read
/// entry point's own steady-state cost (flag computation included).
bench::Op setup_read_ex_spanning(bench::LiveRig& rig) {
  (void)rig.library->register_component(
      "mem", "uncore",
      std::make_unique<papi::MemBandwidthSubstrate>(*rig.machine));
  papi::EventSet& set = rig.new_set();
  (void)set.add_preset(papi::Preset::kTotIns);
  (void)set.add_named("mem::BANDWIDTH_RD");
  (void)rig.start(set);
  return rig.read_ex();
}

/// read_ex against a spanning set whose mem component is quarantined:
/// the fail-fast path the breaker substitutes for the retry ladder.
bench::Op setup_quarantined_fail_fast(bench::LiveRig& rig) {
  papi::FaultPlan plan;
  plan.at(papi::FaultSite::kRead).fail_times = 1 << 30;  // hard down
  auto wrapped = std::make_unique<papi::FaultInjectingSubstrate>(
      std::make_unique<papi::MemBandwidthSubstrate>(*rig.machine), plan);
  auto mem_id = rig.library->register_component("mem", "faulty uncore",
                                                std::move(wrapped));
  papi::HealthPolicy policy;
  policy.max_consecutive_exhaustions = 1;
  policy.probe_cooldown_usec = 1'000'000'000'000ULL;  // never re-probe
  policy.probe_cooldown_max_usec = policy.probe_cooldown_usec;
  (void)rig.library->set_health_policy(policy);

  papi::EventSet& set = rig.new_set();
  (void)set.add_preset(papi::Preset::kTotIns);
  (void)set.add_named("mem::BANDWIDTH_RD");
  if (!rig.start(set)) return {};
  (void)set.read_ex(rig.values, rig.flags);  // trips the breaker
  const bool quarantined =
      mem_id.ok() &&
      rig.library->component_health(mem_id.value()).value().state ==
          papi::HealthState::kQuarantined;
  return quarantined ? rig.read_ex() : bench::Op{};
}

}  // namespace

int main() {
  bench::header("HO1", "component health monitor hot-path overhead");
  std::printf(
      "CPU ns and heap allocations per call after start() (sim-x86,\n"
      "cost charging off; min of %d interleaved reps x %d iterations):"
      "\n\n",
      kReps, kIters);

  const char* const names[] = {"health_disabled", "health_enabled",
                               "read_ex_spanning", "quarantined_fail_fast"};
  bench::LiveRig rigs[4];
  const std::vector<bench::Stats> stats = bench::measure_interleaved(
      {setup_direct(rigs[0], false), setup_direct(rigs[1], true),
       setup_read_ex_spanning(rigs[2]),
       setup_quarantined_fail_fast(rigs[3])},
      kIters, kReps);
  for (bench::LiveRig& rig : rigs) {
    if (rig.set != nullptr) (void)rig.set->stop();
  }

  bench::Report report("health_overhead");
  std::printf("%-24s %10s %10s %10s\n", "scenario", "read_ns", "median_ns",
              "allocs");
  for (std::size_t i = 0; i < stats.size(); ++i) {
    std::printf("%-24s %10.1f %10.1f %10.3f%s\n", names[i],
                stats[i].min_ns, stats[i].median_ns, stats[i].allocs,
                stats[i].ran ? "" : "  (did not run)");
    report.stats(names[i], "read", stats[i]);
  }
  std::printf(
      "\nthe healthy-path bracket is two relaxed atomic loads per slice\n"
      "op; quarantined_fail_fast shows the rejection cost the breaker\n"
      "substitutes for a full retry ladder.\n");

  // The health bracket must cost <= 5% on the direct read (with half a
  // nanosecond of absolute grace against timer noise on very short
  // calls), and every steady-state row stays allocation-free.
  report.ratio_at_most("enabled_vs_disabled_read", stats[1], stats[0], 1.05,
                       0.5);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    report.no_allocs(std::string(names[i]) + "_allocs", stats[i]);
  }
  return report.finish();
}
