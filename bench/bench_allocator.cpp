// E5: counter allocation as bipartite matching (Section 5).  Compares
// the optimal matcher (PAPI 2.3's contribution) against naive first-fit
// on random constraint instances and on the platform-derived cases, and
// times the solver.  Shape to reproduce: the optimal matcher always
// places >= as many events, with a measurable win on constrained
// instances, at microsecond-scale cost.
#include "bench_util.h"
#include "common/rng.h"
#include "core/allocator.h"

using namespace papirepro;
using papi::AllocationInstance;
using papi::AllocationResult;

namespace {

void random_sweep() {
  std::printf("random instances (1000 trials each):\n");
  std::printf("%8s %9s | %10s %10s %12s %12s\n", "events", "counters",
              "opt_full%", "greedy_full%", "opt_mapped", "greedy_mapped");
  Xoshiro256 rng(20030407);
  for (const auto& [events, counters] :
       {std::pair{3, 2}, {4, 4}, {6, 4}, {8, 4}, {8, 8}, {12, 8}}) {
    int opt_full = 0, greedy_full = 0;
    std::uint64_t opt_mapped = 0, greedy_mapped = 0;
    const std::uint32_t full_mask = (1u << counters) - 1;
    constexpr int kTrials = 1000;
    for (int t = 0; t < kTrials; ++t) {
      AllocationInstance inst;
      inst.num_counters = static_cast<std::uint32_t>(counters);
      for (int e = 0; e < events; ++e) {
        // Sparse masks (1-3 allowed counters) model real constraints.
        std::uint32_t mask = 0;
        const int k = 1 + static_cast<int>(rng.next_below(3));
        for (int j = 0; j < k; ++j) {
          mask |= 1u << rng.next_below(static_cast<std::uint64_t>(counters));
        }
        inst.allowed.push_back(mask & full_mask);
      }
      const AllocationResult opt = papi::solve_max_cardinality(inst);
      const AllocationResult greedy = papi::solve_greedy_first_fit(inst);
      opt_full += opt.complete();
      greedy_full += greedy.complete();
      opt_mapped += opt.mapped_count;
      greedy_mapped += greedy.mapped_count;
    }
    std::printf("%8d %9d | %9.1f%% %11.1f%% %12.2f %12.2f\n", events,
                counters, 100.0 * opt_full / kTrials,
                100.0 * greedy_full / kTrials,
                static_cast<double>(opt_mapped) / kTrials,
                static_cast<double>(greedy_mapped) / kTrials);
  }
}

void platform_cases() {
  std::printf("\nplatform-derived instances (sim-x86 constraint masks):\n");
  struct Case {
    const char* description;
    std::vector<const char*> events;
  };
  const Case cases[] = {
      {"cache trio (greedy-hostile order)",
       {"L1D_MISS", "L2_MISS", "DTLB_MISS"}},
      {"mixed fp+mem", {"FP_OPS_RETIRED", "L1D_MISS", "BR_INS_RETIRED",
                        "L2_MISS"}},
      {"overcommitted low counters",
       {"L1D_MISS", "L1D_ACCESS", "LD_RETIRED"}},
  };
  const auto& platform = pmu::sim_x86();
  for (const Case& c : cases) {
    AllocationInstance inst;
    inst.num_counters = platform.num_counters;
    for (const char* name : c.events) {
      inst.allowed.push_back(platform.find_event(name)->counter_mask);
    }
    const AllocationResult opt = papi::solve_max_cardinality(inst);
    const AllocationResult greedy = papi::solve_greedy_first_fit(inst);
    std::printf("  %-38s optimal %u/%zu, first-fit %u/%zu\n",
                c.description, opt.mapped_count, c.events.size(),
                greedy.mapped_count, c.events.size());
  }
}

void timing() {
  // Allocation happens at PAPI_add_event time; it must be cheap.
  Xoshiro256 rng(7);
  AllocationInstance inst;
  inst.num_counters = 8;
  for (int e = 0; e < 12; ++e) {
    inst.allowed.push_back(static_cast<std::uint32_t>(rng.next()) & 0xff);
  }
  constexpr int kIters = 40'000;
  constexpr int kReps = 5;
  std::uint64_t sink = 0;
  const bench::Stats s = bench::measure_interleaved(
      {[&] { sink += papi::solve_max_cardinality(inst).mapped_count; }},
      kIters, kReps)[0];
  std::printf("\noptimal matcher latency (12 events x 8 counters): "
              "%.0f ns/allocation CPU (min of %d reps; checksum %llu)\n",
              s.min_ns, kReps, static_cast<unsigned long long>(sink));
}

}  // namespace

int main() {
  bench::header("E5",
                "counter allocation: optimal matching vs first-fit "
                "(Section 5)");
  random_sweep();
  platform_cases();
  timing();
  std::printf("\nshape: optimal >= greedy everywhere; the gap is where "
              "PAPI 2.3's matcher earns its keep.\n");
  return 0;
}
