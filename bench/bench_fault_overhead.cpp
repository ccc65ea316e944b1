// Hardening tax: the fault-injecting decorator and the bounded-retry
// wrapper stay compiled into the stack; this harness measures what a
// *disabled* decorator plus the retry fast path cost on the hot
// read()/start() paths versus the bare substrate.  The design budget is
// under 5 %; the bench prints the figures and writes
// BENCH_fault_overhead.json but has no exit gate.  Three rigs:
//
//   bare      - SimSubstrate straight into the Library (the seed path)
//   decorated - FaultInjectingSubstrate wrapped, injection DISABLED
//               (one relaxed atomic load per call)
//   injecting - decorator enabled with an all-zero plan (mutex-guarded
//               consult per call; the price of live fault accounting)
//
// Every rig and path is timed in the same interleaved reps
// (bench_util.h's harness: thread-CPU clock, min over reps).
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "substrate/fault_substrate.h"

using namespace papirepro;

namespace {

constexpr int kReads = 200'000;
constexpr int kStartStops = 20'000;
constexpr int kReps = 5;

/// saxpy on sim-x86 through the bare substrate (mode 0) or the fault
/// decorator with injection disabled (1) or enabled (2), and a new
/// EventSet counting PAPI_TOT_INS on it (null if it cannot be added).
std::pair<std::unique_ptr<bench::LiveRig>, papi::EventSet*> make_rig(
    int mode) {
  auto rig = std::make_unique<bench::LiveRig>(
      sim::make_saxpy(400'000), pmu::sim_x86(),
      papi::SimSubstrateOptions{.charge_costs = false});
  if (mode > 0) {
    // Re-wrap the rig's library around a decorated substrate.
    auto inner = std::make_unique<papi::SimSubstrate>(
        *rig->machine, pmu::sim_x86(),
        papi::SimSubstrateOptions{.charge_costs = false});
    auto wrapped = std::make_unique<papi::FaultInjectingSubstrate>(
        std::move(inner), papi::FaultPlan{});
    wrapped->set_enabled(mode == 2);
    rig->library = std::make_unique<papi::Library>(std::move(wrapped));
  }
  papi::EventSet& set = rig->new_set();
  papi::EventSet* added = set.add_named("PAPI_TOT_INS").ok() ? &set : nullptr;
  return {std::move(rig), added};
}

double pct_delta(double base, double value) {
  return base == 0 ? 0.0 : 100.0 * (value - base) / base;
}

}  // namespace

int main() {
  bench::header("R1",
                "fault-injection hardening overhead on hot paths");
  std::printf(
      "workload: saxpy(400000) on sim-x86; per-op CPU cost, min of %d "
      "interleaved reps\n\n", kReps);

  // Separate rigs for the read and start/stop paths: a set being read
  // stays running, a set being cycled starts stopped.
  const char* const names[] = {"bare", "decorated", "injecting"};
  std::vector<std::unique_ptr<bench::LiveRig>> readers, cyclers;
  std::vector<bench::Op> read_ops, cycle_ops;
  for (int mode = 0; mode < 3; ++mode) {
    auto [reader, read_set] = make_rig(mode);
    if (read_set != nullptr && reader->start(*read_set)) {
      reader->machine->run(10'000);
    }
    read_ops.push_back(reader->read());
    readers.push_back(std::move(reader));
    auto [cycler, cycled] = make_rig(mode);
    cycle_ops.push_back(cycled == nullptr ? bench::Op()
                                          : bench::Op([cycled] {
                                              (void)cycled->start();
                                              (void)cycled->stop();
                                            }));
    cyclers.push_back(std::move(cycler));
  }
  const std::vector<bench::Stats> reads =
      bench::measure_interleaved(read_ops, kReads, kReps);
  const std::vector<bench::Stats> cycles =
      bench::measure_interleaved(cycle_ops, kStartStops, kReps);

  bench::Report report("fault_overhead");
  std::printf("%-11s %12s %9s %16s %9s\n", "rig", "read (ns)", "vs bare",
              "start+stop (ns)", "vs bare");
  for (int mode = 0; mode < 3; ++mode) {
    std::printf("%-11s %12.1f %+8.2f%% %16.1f %+8.2f%%\n", names[mode],
                reads[mode].min_ns,
                pct_delta(reads[0].min_ns, reads[mode].min_ns),
                cycles[mode].min_ns,
                pct_delta(cycles[0].min_ns, cycles[mode].min_ns));
    report.stats(names[mode], "read", reads[mode]);
    report.stats(names[mode], "start_stop", cycles[mode]);
  }

  std::printf(
      "\nshape to reproduce: 'decorated' (injection compiled in but\n"
      "disabled) stays within 5%% of 'bare' on both paths; 'injecting'\n"
      "pays the per-call mutex but stays in the same decade.\n");
  return report.finish();
}
