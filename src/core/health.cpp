#include "core/health.h"

#include <bit>

#include "core/telemetry.h"
#include "substrate/substrate.h"

namespace papirepro::papi {

namespace {
/// Trace-record arg layout for TraceEventKind::kHealth.
std::uint64_t pack_transition(std::uint32_t component, HealthState from,
                              HealthState to) noexcept {
  return static_cast<std::uint64_t>(component) |
         (static_cast<std::uint64_t>(from) << 8) |
         (static_cast<std::uint64_t>(to) << 16);
}
}  // namespace

void HealthMonitor::set_policy(const HealthPolicy& policy) noexcept {
  enabled_.store(policy.enabled, std::memory_order_relaxed);
  max_consecutive_.store(policy.max_consecutive_exhaustions,
                         std::memory_order_relaxed);
  window_min_ops_.store(policy.window_min_ops, std::memory_order_relaxed);
  failure_rate_threshold_.store(policy.failure_rate_threshold,
                                std::memory_order_relaxed);
  probation_successes_.store(policy.probation_successes,
                             std::memory_order_relaxed);
  cooldown_base_usec_.store(policy.probe_cooldown_usec,
                            std::memory_order_relaxed);
  cooldown_max_usec_.store(policy.probe_cooldown_max_usec,
                           std::memory_order_relaxed);
}

HealthPolicy HealthMonitor::policy() const noexcept {
  HealthPolicy p;
  p.enabled = enabled_.load(std::memory_order_relaxed);
  p.max_consecutive_exhaustions =
      max_consecutive_.load(std::memory_order_relaxed);
  p.window_min_ops = window_min_ops_.load(std::memory_order_relaxed);
  p.failure_rate_threshold =
      failure_rate_threshold_.load(std::memory_order_relaxed);
  p.probation_successes =
      probation_successes_.load(std::memory_order_relaxed);
  p.probe_cooldown_usec =
      cooldown_base_usec_.load(std::memory_order_relaxed);
  p.probe_cooldown_max_usec =
      cooldown_max_usec_.load(std::memory_order_relaxed);
  return p;
}

std::uint64_t HealthMonitor::now_usec() const noexcept {
  return clock_ != nullptr ? clock_->real_usec() : 0;
}

bool HealthMonitor::transition(HealthState from, HealthState to) noexcept {
  auto expected = static_cast<std::uint8_t>(from);
  if (!state_.compare_exchange_strong(expected,
                                      static_cast<std::uint8_t>(to),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
    return false;
  }
  transitions_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) {
    telemetry_->trace_instant(
        TraceEventKind::kHealth,
        clock_ != nullptr ? clock_->real_cycles() : 0,
        pack_transition(component_, from, to));
  }
  return true;
}

void HealthMonitor::window_push(bool failed) noexcept {
  std::uint64_t bits = window_bits_.load(std::memory_order_relaxed);
  while (!window_bits_.compare_exchange_weak(
      bits, (bits << 1) | (failed ? 1u : 0u), std::memory_order_relaxed)) {
  }
  std::uint32_t ops = window_ops_.load(std::memory_order_relaxed);
  while (ops < 64 && !window_ops_.compare_exchange_weak(
                         ops, ops + 1, std::memory_order_relaxed)) {
  }
}

void HealthMonitor::maybe_trip(HealthState s) noexcept {
  bool trip = false;
  const std::uint32_t consec =
      consecutive_exhaustions_.load(std::memory_order_relaxed);
  if (consec >= max_consecutive_.load(std::memory_order_relaxed)) {
    trip = true;
  } else {
    const std::uint32_t min_ops =
        window_min_ops_.load(std::memory_order_relaxed);
    const std::uint32_t ops = window_ops_.load(std::memory_order_relaxed);
    if (min_ops > 0 && ops >= min_ops) {
      const std::uint64_t bits =
          window_bits_.load(std::memory_order_relaxed);
      const std::uint32_t span = ops < 64 ? ops : 64;
      const std::uint64_t mask =
          span >= 64 ? ~0ULL : ((1ULL << span) - 1);
      const auto failures = static_cast<std::uint32_t>(
          std::popcount(bits & mask));
      const double rate =
          static_cast<double>(failures) / static_cast<double>(span);
      trip = rate >=
             failure_rate_threshold_.load(std::memory_order_relaxed);
    }
  }
  if (!trip) return;
  if (!transition(s, HealthState::kQuarantined)) return;
  std::uint64_t cd = cooldown_usec_.load(std::memory_order_relaxed);
  if (cd == 0) cd = cooldown_base_usec_.load(std::memory_order_relaxed);
  cooldown_usec_.store(cd, std::memory_order_relaxed);
  quarantine_until_usec_.store(now_usec() + cd, std::memory_order_relaxed);
  probe_successes_.store(0, std::memory_order_relaxed);
  quarantines_.fetch_add(1, std::memory_order_relaxed);
}

Status HealthMonitor::admit_slow(HealthState s) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return Error::kOk;
  for (;;) {
    switch (s) {
      case HealthState::kHealthy:
      case HealthState::kDegraded:
        return Error::kOk;
      case HealthState::kProbation:
        probes_.fetch_add(1, std::memory_order_relaxed);
        return Error::kOk;
      case HealthState::kQuarantined: {
        if (now_usec() <
            quarantine_until_usec_.load(std::memory_order_relaxed)) {
          fail_fasts_.fetch_add(1, std::memory_order_relaxed);
          return Error::kComponentQuarantined;
        }
        // Cool-down elapsed: one CAS winner flips to Probation; losers
        // re-read and fall through the loop (they will admit as probes
        // or fail fast against a fresh re-quarantine).
        (void)transition(HealthState::kQuarantined,
                         HealthState::kProbation);
        s = state();
        continue;
      }
    }
  }
}

void HealthMonitor::record_slow(Error outcome, HealthState /*hint*/)
    noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  // Our own fail-fast rejection circulating back through a caller must
  // not feed the state machine (it never reached the substrate).
  if (outcome == Error::kComponentQuarantined) return;
  const HealthState s = state();
  const bool failed = outcome != Error::kOk;
  // Deterministic, non-transient failures (bad arguments, unsupported
  // features) say nothing about substrate health; only retry-exhausted
  // transient faults drive the breaker.
  const bool counts = failed && is_transient(outcome);
  if (failed) {
    last_error_.store(static_cast<int>(outcome),
                      std::memory_order_relaxed);
  }
  switch (s) {
    case HealthState::kQuarantined:
      // An op admitted before the breaker tripped is finishing late;
      // its outcome is already represented by the trip.
      return;
    case HealthState::kProbation: {
      if (counts) {
        // Probe failed: re-quarantine with a doubled cool-down.
        std::uint64_t cd = cooldown_usec_.load(std::memory_order_relaxed);
        const std::uint64_t base =
            cooldown_base_usec_.load(std::memory_order_relaxed);
        const std::uint64_t cap =
            cooldown_max_usec_.load(std::memory_order_relaxed);
        cd = cd == 0 ? base : cd * 2;
        if (cd > cap) cd = cap;
        if (transition(HealthState::kProbation,
                       HealthState::kQuarantined)) {
          cooldown_usec_.store(cd, std::memory_order_relaxed);
          quarantine_until_usec_.store(now_usec() + cd,
                                       std::memory_order_relaxed);
          probe_successes_.store(0, std::memory_order_relaxed);
          quarantines_.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (!failed) {
        const std::uint32_t got =
            probe_successes_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (got >=
                probation_successes_.load(std::memory_order_relaxed) &&
            transition(HealthState::kProbation, HealthState::kHealthy)) {
          cooldown_usec_.store(0, std::memory_order_relaxed);
          window_bits_.store(0, std::memory_order_relaxed);
          window_ops_.store(0, std::memory_order_relaxed);
          consecutive_exhaustions_.store(0, std::memory_order_relaxed);
          probe_successes_.store(0, std::memory_order_relaxed);
        }
      }
      return;
    }
    case HealthState::kHealthy:
    case HealthState::kDegraded: {
      window_push(counts);
      if (counts) {
        consecutive_exhaustions_.fetch_add(1, std::memory_order_relaxed);
        if (s == HealthState::kHealthy) {
          (void)transition(HealthState::kHealthy, HealthState::kDegraded);
        }
        maybe_trip(state() == HealthState::kDegraded
                       ? HealthState::kDegraded
                       : HealthState::kHealthy);
      } else if (!failed) {
        consecutive_exhaustions_.store(0, std::memory_order_relaxed);
        if (s == HealthState::kDegraded) {
          const std::uint32_t min_ops =
              window_min_ops_.load(std::memory_order_relaxed);
          const std::uint32_t ops =
              window_ops_.load(std::memory_order_relaxed);
          const std::uint64_t bits =
              window_bits_.load(std::memory_order_relaxed);
          const std::uint32_t span = min_ops < 64 ? min_ops : 64;
          const std::uint64_t mask =
              span >= 64 ? ~0ULL : ((1ULL << span) - 1);
          // The last window_min_ops operations all succeeded: recover.
          if (ops >= min_ops && (bits & mask) == 0 &&
              transition(HealthState::kDegraded, HealthState::kHealthy)) {
            window_bits_.store(0, std::memory_order_relaxed);
            window_ops_.store(0, std::memory_order_relaxed);
          }
        }
      }
      return;
    }
  }
}

ComponentHealth HealthMonitor::snapshot() const noexcept {
  ComponentHealth h;
  h.component = component_;
  h.state = state();
  h.consecutive_exhaustions =
      consecutive_exhaustions_.load(std::memory_order_relaxed);
  const std::uint32_t ops = window_ops_.load(std::memory_order_relaxed);
  const std::uint64_t bits = window_bits_.load(std::memory_order_relaxed);
  const std::uint32_t span = ops < 64 ? ops : 64;
  const std::uint64_t mask = span >= 64 ? ~0ULL : ((1ULL << span) - 1);
  h.window_ops = ops;
  h.window_failures =
      static_cast<std::uint32_t>(std::popcount(bits & mask));
  h.quarantines = quarantines_.load(std::memory_order_relaxed);
  h.fail_fasts = fail_fasts_.load(std::memory_order_relaxed);
  h.probes = probes_.load(std::memory_order_relaxed);
  h.transitions = transitions_.load(std::memory_order_relaxed);
  h.cooldown_usec = cooldown_usec_.load(std::memory_order_relaxed);
  h.last_error =
      static_cast<Error>(last_error_.load(std::memory_order_relaxed));
  return h;
}

void HealthMonitor::force_healthy() noexcept {
  const auto from = static_cast<HealthState>(state_.exchange(
      static_cast<std::uint8_t>(HealthState::kHealthy),
      std::memory_order_acq_rel));
  window_bits_.store(0, std::memory_order_relaxed);
  window_ops_.store(0, std::memory_order_relaxed);
  consecutive_exhaustions_.store(0, std::memory_order_relaxed);
  probe_successes_.store(0, std::memory_order_relaxed);
  cooldown_usec_.store(0, std::memory_order_relaxed);
  quarantine_until_usec_.store(0, std::memory_order_relaxed);
  if (from != HealthState::kHealthy) {
    transitions_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr) {
      telemetry_->trace_instant(
          TraceEventKind::kHealth,
          clock_ != nullptr ? clock_->real_cycles() : 0,
          pack_transition(component_, from, HealthState::kHealthy));
    }
  }
}

}  // namespace papirepro::papi
