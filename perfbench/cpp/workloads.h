// The three workloads and the layer ladder.  Each workload entry point
// sets up (several times, for setup_s), runs its timed phases, checks its
// outputs and fills `report` with every end-to-end metric (untraced run)
// or every per-layer metric it owns (traced run).
#pragma once

#include <memory>
#include <vector>

#include "common.h"

namespace perfbench {

/// Span recorders handed back by the workloads, written out at exit.
using SpanSet = std::vector<std::unique_ptr<SpanRecorder>>;

/// What a traced workload run hands to the layer ladder.
struct TracedRead {
  /// Untraced direct-set read p50 and its interquartile range, from the
  /// untraced chunks of the traced run (counting only; 0 elsewhere).
  double direct_p50_ns = 0;
  double direct_iqr_ns = 0;
  /// read_ns_p50 over the traced and the untraced chunks.
  double traced_p50_ns = 0;
  double untraced_p50_ns = 0;
};

/// counting, monitoring and regions: the C API over simulated machines.
void run_sim_workload(const Config& config, Report& report, Tally& tally,
                      SpanSet& spans, TracedRead& traced);

/// Fixed-work pass on a C++ rig with cost charging on: checks counts
/// against the machine's ground-truth signal totals and returns the
/// paper's overhead ratio (measurement cycles / measured cycles) of the
/// direct set.  `all_kinds` adds the spanning, multiplexed and read_ex
/// sets (the counting workload's kinds).
double fixed_work_pass(const char* platform, bool all_kinds,
                       std::uint64_t seed, Tally& tally);

/// The traced run's layer ladder: the same operation entered at each
/// layer's public function, interleaved round by round.  Fills the
/// ladder's per-layer metrics and runs the layer sum check.
void run_layers(const Config& config, const TracedRead& traced,
                Report& report, Tally& tally, SpanRecorder& spans);

}  // namespace perfbench
