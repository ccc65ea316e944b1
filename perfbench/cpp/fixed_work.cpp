// Fixed-work pass: a whole SAXPY run on a C++ rig with counter-access
// costs charged, read at a fixed instruction interval.  Counts are
// checked against the machine's ground truth (a listener that sees every
// architectural signal), and the direct set's overhead ratio is the
// paper's "direct counting costs up to 30 %" metric.  The work is fixed by
// the seed, so the ratio repeats exactly for a given seed.
#include <array>
#include <cmath>
#include <memory>

#include "core/library.h"
#include "pmu/platform.h"
#include "sim/comm.h"
#include "sim/event.h"
#include "sim/kernels.h"
#include "substrate/component_substrates.h"
#include "substrate/sim_substrate.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace pmu = papirepro::pmu;
namespace sim = papirepro::sim;

constexpr std::uint64_t kReadEvery = 2'000;  ///< instructions
/// Multiplexed estimates after a run this long (more than 400k
/// instructions, the converged regime of experiment E4) stay within 1 %.
constexpr double kMuxBound = 0.01;

/// Ground truth: every architectural signal the machine emits.
class SignalTotals final : public sim::EventListener {
 public:
  explicit SignalTotals(sim::Machine& machine) : machine_(machine) {
    machine_.add_listener(this);
  }
  ~SignalTotals() override { machine_.remove_listener(this); }
  SignalTotals(const SignalTotals&) = delete;
  SignalTotals& operator=(const SignalTotals&) = delete;

  void on_event(sim::SimEvent event, std::uint64_t weight,
                const sim::EventContext&) override {
    counts_[static_cast<std::size_t>(event)] += weight;
  }
  std::uint64_t operator[](sim::SimEvent e) const {
    return counts_[static_cast<std::size_t>(e)];
  }
  std::array<std::uint64_t, sim::kNumSimEvents> counts() const {
    return counts_;
  }

 private:
  sim::Machine& machine_;
  std::array<std::uint64_t, sim::kNumSimEvents> counts_{};
};

/// The true count of `preset` between two signal snapshots.
double preset_truth(const papi::Substrate& substrate,
                    const pmu::PlatformDescription& platform,
                    papi::Preset preset,
                    const std::array<std::uint64_t, sim::kNumSimEvents>& from,
                    const std::array<std::uint64_t, sim::kNumSimEvents>& to) {
  auto mapping = substrate.preset_mapping(preset);
  if (!mapping.ok()) return -1;
  double total = 0;
  for (const papi::MappingTerm& term : mapping.value().terms) {
    const pmu::NativeEvent* native = platform.find_event(term.native);
    if (native == nullptr) return -1;
    for (const pmu::SignalTerm& s : native->terms) {
      const auto i = static_cast<std::size_t>(s.signal);
      total += static_cast<double>(term.coefficient) * s.multiplier *
               static_cast<double>(to[i] - from[i]);
    }
  }
  return total;
}

enum class Kind { kDirect, kSpanning, kMux, kReadEx };

}  // namespace

double fixed_work_pass(const char* platform_name, bool all_kinds,
                       std::uint64_t seed, Tally& tally) {
  const pmu::PlatformDescription& platform =
      *pmu::find_platform(platform_name);
  const std::int64_t n = 100'000 + static_cast<std::int64_t>(seed % 1024);
  double direct_ratio = 0;
  std::vector<Kind> kinds = {Kind::kDirect};
  if (all_kinds) kinds = {Kind::kDirect, Kind::kSpanning, Kind::kMux,
                          Kind::kReadEx};
  for (const Kind kind : kinds) {
    sim::Workload work = sim::make_saxpy(n);
    sim::Machine machine(work.program, platform.machine);
    if (work.setup) work.setup(machine);
    sim::CommWorld world({&machine});
    papi::Library library(
        std::make_unique<papi::SimSubstrate>(machine, platform));
    (void)library.register_component(
        "mem", "uncore", std::make_unique<papi::MemBandwidthSubstrate>(machine));
    (void)library.register_component(
        "net", "nic", std::make_unique<papi::NetworkSubstrate>(world));
    SignalTotals truth(machine);

    auto handle = library.create_event_set();
    tally.op(static_cast<int>(handle.error()));
    if (!handle.ok()) continue;
    papi::EventSet& set = *library.event_set(handle.value()).value();
    std::vector<papi::Preset> presets;
    std::vector<const char*> names;
    switch (kind) {
      case Kind::kDirect:
        names = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
        break;
      case Kind::kSpanning:
        names = {"PAPI_TOT_INS", "mem::BANDWIDTH_RD", "net::MSG_SENT"};
        break;
      case Kind::kMux:
        tally.op(static_cast<int>(set.enable_multiplex().error()));
        names = {"PAPI_TOT_INS", "PAPI_FMA_INS", "PAPI_LD_INS",
                 "PAPI_SR_INS",  "PAPI_BR_INS",  "PAPI_L1_DCA"};
        presets = {papi::Preset::kTotIns, papi::Preset::kFmaIns,
                   papi::Preset::kLdIns,  papi::Preset::kSrIns,
                   papi::Preset::kBrIns,  papi::Preset::kL1Dca};
        break;
      case Kind::kReadEx:
        names = {"PAPI_TOT_INS", "PAPI_TOT_CYC", "mem::BANDWIDTH_RD"};
        break;
    }
    for (const char* name : names) {
      tally.op(static_cast<int>(set.add_named(name).error()));
    }
    std::vector<long long> values(names.size());
    std::vector<std::uint32_t> flags(names.size());
    tally.op(static_cast<int>(set.start().error()));
    const auto start_counts = truth.counts();
    const std::uint64_t ins0 = truth[sim::SimEvent::kInstructions];
    while (!machine.halted()) {
      machine.run(kReadEvery);
      const papirepro::Status s = kind == Kind::kReadEx
                                      ? set.read_ex(values, flags)
                                      : set.read(values);
      tally.op(static_cast<int>(s.error()));
      if (!s.ok() || kind == Kind::kMux) continue;
      // Exact: the instructions retired since start().
      const long long want = static_cast<long long>(
          truth[sim::SimEvent::kInstructions] - ins0);
      tally.check(values[0] == want,
                  "fixed work: PAPI_TOT_INS equals the machine's total",
                  static_cast<double>(values[0]), static_cast<double>(want));
      if (kind == Kind::kReadEx) {
        bool valid = true;
        for (std::uint32_t f : flags) valid &= f == 0;
        tally.check(valid, "fixed work: every read_ex flag is valid");
      }
    }
    tally.op(static_cast<int>(set.stop(values).error()));
    if (kind == Kind::kMux) {
      const auto end_counts = truth.counts();
      for (std::size_t i = 0; i < presets.size(); ++i) {
        const double want = preset_truth(library.substrate(), platform,
                                         presets[i], start_counts,
                                         end_counts);
        const double err =
            want > 0 ? std::abs(static_cast<double>(values[i]) - want) / want
                     : 1.0;
        tally.check(err <= kMuxBound,
                    "fixed work: multiplexed estimate within the E4 bound",
                    static_cast<double>(values[i]), want);
      }
    }
    if (kind == Kind::kDirect) direct_ratio = set.overhead_ratio();
  }
  return direct_ratio;
}

}  // namespace perfbench
