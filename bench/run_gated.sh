#!/usr/bin/env bash
# Runs every exit-gated bench and prints each one's verdict.  All of
# them run even when one fails, so every bench writes its BENCH_*.json
# into the working directory; the exit status is nonzero if any gate is
# red.  The gates are bound to optimized code, so the build tree must be
# a Release one.
#
#   bench/run_gated.sh [build-dir]    # default "build"
#
# Each bench prints its gates as "gate <name> <value> bound <bound>" and
# exits nonzero when one is red (bench_util.h's Report).  The gates:
#   bench_read_hotpath (RH1)        direct read > 20 ns, cross-component
#                                   read > 2x direct, a steady-state row
#                                   allocates, or one snapshot_all pass over
#                                   1000 sets is not cheaper than the naive
#                                   per-handle read loop
#   bench_thread_scaling (TS1)      64-thread per-call read > 1.25x the
#                                   single-thread cost
#   bench_fault_overhead            prints the disabled fault decorator's
#                                   cost on the hot paths (no exit gate;
#                                   only a crash turns it red)
#   bench_sampling_pipeline (SP1)   async overhead > 5 %, async not cheaper
#                                   than sync and direct, or the sync/async
#                                   histograms fail to converge
#   bench_telemetry_overhead (TL1)  telemetry-enabled reads > 3 % or
#                                   trace-ring reads > 10 % over the
#                                   disabled baseline (+ 4 ns), or any
#                                   scenario allocates
#   bench_health_overhead (HO1)     health-enabled direct read > 5 % over
#                                   health-disabled (+ 0.5 ns), or a
#                                   steady-state row (fail-fast path
#                                   included) allocates
#   bench_aggregation (AG1)         1024-rank reduction diverges from the
#                                   sequential oracle, ingest > 2x the
#                                   snapshot_all per-set cost, a poll
#                                   allocates, a counting thread stops, or
#                                   the snapshot region fails to round-trip
# A scenario that could not run turns every gate that reads it red.
set -u

build_dir="${1:-build}"
cache="${build_dir}/CMakeCache.txt"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "${cache}" 2>/dev/null)"
if [[ "${build_type}" != "Release" ]]; then
  echo "run_gated.sh: ${build_dir} is not a Release tree" \
       "(CMAKE_BUILD_TYPE='${build_type}' in ${cache});" \
       "configure one with -DCMAKE_BUILD_TYPE=Release" >&2
  exit 2
fi

status=0
verdicts=()
for bench in bench_read_hotpath bench_thread_scaling bench_fault_overhead \
             bench_sampling_pipeline bench_telemetry_overhead \
             bench_health_overhead bench_aggregation; do
  echo "=== ${bench}"
  if "${build_dir}/bench/${bench}"; then
    verdicts+=("PASS  ${bench}")
  else
    verdicts+=("FAIL  ${bench} (exit $?)")
    status=1
  fi
done

echo "=== gate verdicts"
printf '%s\n' "${verdicts[@]}"
exit "${status}"
