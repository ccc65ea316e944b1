// PAPI-C style component registry: the Library owns an ordered set of
// measurement components — CPU core, memory/uncore, network — each with
// its own Substrate, event namespace ("cpu::", "mem::", "net::"), and
// counter budget.  Component 0 is always the CPU core substrate the
// Library was constructed with, so every pre-component call site keeps
// its exact behaviour; further components register at init time and are
// enumerable through the component-info API.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/health.h"

namespace papirepro::papi {

class Substrate;

/// Hard cap on registered components: the component id must fit the
/// 7-bit event-code field, and telemetry keeps a fixed per-component
/// counter block of this size per thread slab.
inline constexpr std::uint32_t kMaxComponents = 8;

/// Snapshot of one registered component, as surfaced by the
/// component-info API (PAPI_get_component_info analogue).
struct ComponentInfo {
  std::uint32_t id = 0;
  std::string name;         ///< namespace prefix, e.g. "cpu"
  std::string description;  ///< substrate's self-description
  std::uint32_t num_counters = 0;
  bool enabled = true;
};

/// One registered component: the namespace name plus the owning
/// Substrate.  `enabled` is a soft switch — a disabled component keeps
/// its registration (ids are stable) but rejects new event adds with
/// Error::kComponentDisabled.  `health` is the component's circuit
/// breaker, bound by the Library at registration time.
struct Component {
  Component();
  ~Component();  // out of line: Substrate is incomplete here

  std::uint32_t id = 0;
  std::string name;
  std::string description;
  std::unique_ptr<Substrate> substrate;
  std::atomic<bool> enabled{true};
  HealthMonitor health;
};

/// Ordered, append-only registry.  Registration happens at Library
/// construction/init (single-threaded, as in real PAPI); afterwards the
/// vector is immutable, so lookups need no lock.
class ComponentRegistry {
 public:
  /// Appends a component and returns its id.  Rejects duplicate names,
  /// empty names, names containing ':', and registration beyond
  /// kMaxComponents.
  Result<std::uint32_t> add(std::string name, std::string description,
                            std::unique_ptr<Substrate> substrate);

  std::size_t size() const noexcept { return components_.size(); }

  Component* at(std::uint32_t id) const noexcept {
    return id < components_.size() ? components_[id].get() : nullptr;
  }

  Component* find(std::string_view name) const noexcept {
    for (const auto& c : components_) {
      if (c->name == name) return c.get();
    }
    return nullptr;
  }

 private:
  std::vector<std::unique_ptr<Component>> components_;
};

}  // namespace papirepro::papi
