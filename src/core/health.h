// Per-component health monitor: a lock-free circuit breaker between the
// retry layer and the substrates.  The paper's degradation lesson (and
// ScALPEL's adaptive-monitoring thesis) is that a monitoring layer must
// survive a misbehaving counter source: without a breaker, a substrate
// that is hard-down pays the full bounded-retry exponential backoff on
// *every* operation forever, turning one dead component into a
// process-wide stall.  The HealthMonitor watches the per-operation
// outcomes the retry wrapper already produces and drives a four-state
// machine:
//
//            consecutive exhaustions >= max, or
//            window failure rate >= threshold
//   Healthy ----------> Degraded ----------> Quarantined
//      ^   first fault       (breaker trips)      |
//      |                                          | cool-down elapses
//      |   window drains clean                    | (exponential)
//      +-------- Degraded                         v
//      ^                                      Probation
//      |   probation_successes probes OK          |
//      +------------------------------------------+
//                 (a probe failure re-quarantines with doubled cool-down)
//
// While Quarantined, admit() rejects the operation with
// Error::kComponentQuarantined *before* the retry wrapper runs, so a
// dead component costs one relaxed load + one clock read instead of the
// full backoff ladder.  Recovery is lazy — probe-on-next-op once the
// cool-down elapses; no background thread.
//
// Concurrency: the state is a single atomic<uint8_t> advanced by CAS;
// the failure window is a 64-bit bitmask shifted in by CAS; counters
// are relaxed atomics.  Racing recorders may both observe a trip
// condition, but the CAS ensures exactly one performs each transition
// (and counts and traces it).  The Healthy fast paths —
// admit() and record(kOk) — are one relaxed load each and never touch
// the clock, keeping the steady-state read hot path at its budget.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace papirepro::papi {

class Substrate;
class TelemetryRegistry;

/// Health states, ordered so the admit() fast path is one comparison:
/// states <= kDegraded admit operations unconditionally.
enum class HealthState : std::uint8_t {
  kHealthy = 0,     ///< normal operation
  kDegraded = 1,    ///< recent faults, still admitting (window filling)
  kQuarantined = 2, ///< breaker open: fail fast until cool-down elapses
  kProbation = 3,   ///< cool-down elapsed: admitting probes
};

constexpr const char* health_state_name(HealthState s) noexcept {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbation: return "probation";
  }
  return "?";
}

/// Tunables for the breaker, settable per Library (mirrors RetryPolicy).
struct HealthPolicy {
  bool enabled = true;
  /// Consecutive retry-exhausted transient faults that trip the breaker.
  std::uint32_t max_consecutive_exhaustions = 3;
  /// Minimum ops in the sliding window before the rate test applies.
  std::uint32_t window_min_ops = 16;
  /// Window failure rate (failures / ops, over the last <=64 ops) that
  /// trips the breaker once window_min_ops have been observed.
  double failure_rate_threshold = 0.5;
  /// Successful probes required to leave Probation for Healthy.
  std::uint32_t probation_successes = 2;
  /// Initial quarantine cool-down; doubles on each probe failure.
  std::uint64_t probe_cooldown_usec = 100;
  /// Cool-down ceiling for the exponential growth.
  std::uint64_t probe_cooldown_max_usec = 1'000'000;
};

/// Point-in-time view of one component's health (C API mirror).
struct ComponentHealth {
  std::uint32_t component = 0;
  HealthState state = HealthState::kHealthy;
  std::uint32_t consecutive_exhaustions = 0;
  std::uint32_t window_ops = 0;       ///< ops in the sliding window (<=64)
  std::uint32_t window_failures = 0;  ///< failed ops among those
  std::uint64_t quarantines = 0;      ///< breaker trips, lifetime
  std::uint64_t fail_fasts = 0;       ///< ops rejected while quarantined
  std::uint64_t probes = 0;           ///< probation probes admitted
  std::uint64_t transitions = 0;      ///< state changes, lifetime
  std::uint64_t cooldown_usec = 0;    ///< current cool-down interval
  Error last_error = Error::kOk;      ///< most recent recorded fault
};

class HealthMonitor {
 public:
  HealthMonitor() = default;
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Wires the monitor to the registry its transitions are traced into,
  /// the clock it uses for cool-down arithmetic, and its component id
  /// (for trace args).  The lifetime counts stay here; the library's
  /// telemetry snapshot sums them over components.
  /// Called once at component registration, before any concurrent use.
  void bind(TelemetryRegistry* telemetry, Substrate* clock,
            std::uint32_t component) noexcept {
    telemetry_ = telemetry;
    clock_ = clock;
    component_ = component;
  }

  void set_policy(const HealthPolicy& policy) noexcept;
  HealthPolicy policy() const noexcept;

  HealthState state() const noexcept {
    return static_cast<HealthState>(state_.load(std::memory_order_relaxed));
  }

  /// Gate called before an operation touches the component's substrate.
  /// Healthy/Degraded admit in one relaxed load; Quarantined fails fast
  /// with kComponentQuarantined until the cool-down elapses, then flips
  /// to Probation and admits the op as a probe.
  Status admit() noexcept {
    const auto s =
        static_cast<HealthState>(state_.load(std::memory_order_relaxed));
    if (s <= HealthState::kDegraded) return Error::kOk;
    return admit_slow(s);
  }

  /// Feeds an operation's final outcome (post-retry) back into the
  /// state machine.  The Healthy-success path is one relaxed load.
  void record(Error outcome) noexcept {
    const auto s =
        static_cast<HealthState>(state_.load(std::memory_order_relaxed));
    if (outcome == Error::kOk && s == HealthState::kHealthy) return;
    record_slow(outcome, s);
  }

  ComponentHealth snapshot() const noexcept;

  /// Test/administrative escape hatch: reopen the component immediately
  /// (clears the window, cool-down, and consecutive-failure count).
  void force_healthy() noexcept;

 private:
  Status admit_slow(HealthState s) noexcept;
  void record_slow(Error outcome, HealthState s) noexcept;
  /// CAS `from` -> `to`; on success accounts the transition (lifetime
  /// count + trace record) and returns true.
  bool transition(HealthState from, HealthState to) noexcept;
  /// Pushes one op into the sliding window (bit 0 = newest; 1 = fail).
  void window_push(bool failed) noexcept;
  /// Trips the breaker if the consecutive/exhaustion or window-rate
  /// condition holds in state `s`.
  void maybe_trip(HealthState s) noexcept;
  std::uint64_t now_usec() const noexcept;

  TelemetryRegistry* telemetry_ = nullptr;
  Substrate* clock_ = nullptr;
  std::uint32_t component_ = 0;

  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(HealthState::kHealthy)};

  // Policy knobs as individual atomics so set_policy() never blocks the
  // hot path (same pattern as Library's RetryPolicy).
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint32_t> max_consecutive_{3};
  std::atomic<std::uint32_t> window_min_ops_{16};
  std::atomic<double> failure_rate_threshold_{0.5};
  std::atomic<std::uint32_t> probation_successes_{2};
  std::atomic<std::uint64_t> cooldown_base_usec_{100};
  std::atomic<std::uint64_t> cooldown_max_usec_{1'000'000};

  // Sliding window: newest op in bit 0, saturating op count to 64.
  std::atomic<std::uint64_t> window_bits_{0};
  std::atomic<std::uint32_t> window_ops_{0};

  std::atomic<std::uint32_t> consecutive_exhaustions_{0};
  std::atomic<std::uint32_t> probe_successes_{0};
  std::atomic<std::uint64_t> quarantine_until_usec_{0};
  std::atomic<std::uint64_t> cooldown_usec_{0};
  std::atomic<int> last_error_{0};

  // Lifetime stats.
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> fail_fasts_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> transitions_{0};
};

}  // namespace papirepro::papi
