// The traced run's layer ladder.  The same operation is entered at each
// layer's public function -- PmuModel::read, CounterContext::read,
// EventSet::read, PAPI_read -- on equivalent objects, one batch per layer
// per round, so slow drift of the host hits every layer alike.  Each
// layer's time is cumulative (it includes the layers below), and a
// layer's self time is the difference between adjacent layers.  Spans of
// one round share an operation id.
//
// Every simulated rig is a sim-t3e machine charging counter-access costs,
// as the counting workload's C API library does, so the layers time the
// same work as its direct read.
#include <cmath>
#include <functional>
#include <memory>

#include "capi/papi.h"
#include "core/library.h"
#include "pmu/platform.h"
#include "pmu/pmu.h"
#include "sim/comm.h"
#include "sim/kernels.h"
#include "substrate/component_substrates.h"
#include "substrate/perf_event_substrate.h"
#include "substrate/sim_substrate.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace pmu = papirepro::pmu;
namespace sim = papirepro::sim;

constexpr int kBatch = 32;
constexpr int kPerfBatch = 16;
constexpr int kProgramBatch = 8;
constexpr long long kStep = 16;
constexpr int kAggregateRanks = 1024;
constexpr long long kKernelReps = 1'000'000;

sim::Workload kernel() { return sim::make_multiphase(kKernelReps, 4'000); }

/// A machine with its own Library: a thread runs one set per library, so
/// each set kind gets its own rig.
struct SimRig {
  sim::Workload workload = kernel();
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::CommWorld> world;
  std::unique_ptr<papi::Library> library;
  papi::EventSet* set = nullptr;

  SimRig(bool charge_costs, bool components) {
    const pmu::PlatformDescription& platform = pmu::sim_t3e();
    machine = std::make_unique<sim::Machine>(workload.program,
                                             platform.machine);
    if (workload.setup) workload.setup(*machine);
    library = std::make_unique<papi::Library>(
        std::make_unique<papi::SimSubstrate>(
            *machine, platform,
            papi::SimSubstrateOptions{.charge_costs = charge_costs}));
    if (components) {
      world = std::make_unique<sim::CommWorld>(
          std::vector<sim::Machine*>{machine.get()});
      (void)library->register_component(
          "mem", "uncore",
          std::make_unique<papi::MemBandwidthSubstrate>(*machine));
      (void)library->register_component(
          "net", "nic", std::make_unique<papi::NetworkSubstrate>(*world));
    }
  }

  papi::EventSet* new_set(std::initializer_list<const char*> events,
                          bool mux, Tally& tally) {
    auto handle = library->create_event_set();
    tally.op(static_cast<int>(handle.error()));
    if (!handle.ok()) return nullptr;
    papi::EventSet* s = library->event_set(handle.value()).value();
    if (mux) tally.op(static_cast<int>(s->enable_multiplex().error()));
    for (const char* e : events) {
      tally.op(static_cast<int>(s->add_named(e).error()));
    }
    return s;
  }
};

struct Rung {
  const char* name;
  std::function<void()> run;  ///< one batch; adds its own samples
};

/// Times `calls` calls of `op` and returns ns per call.
template <typename Op>
double time_calls(int calls, int& failures, Op&& op) {
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < calls; ++i) failures += op() ? 0 : 1;
  return static_cast<double>(now_ns() - t0) / calls;
}

using Samples = std::vector<double>;

double p50(const Samples& s) { return percentile(s, 0.5); }
double iqr(const Samples& s) { return percentile(s, 0.75) - percentile(s, 0.25); }

}  // namespace

void run_layers(const Config& config, const TracedRead& traced,
                Report& report, Tally& tally, SpanRecorder& spans) {
  const pmu::PlatformDescription& t3e = pmu::sim_t3e();
  int failures = 0;
  std::uint64_t attempted = 0;
  auto ok = [](papirepro::Status s) { return s.ok(); };

  // --- pmu: the PMU model under a bare machine -------------------------
  sim::Workload pmu_workload = kernel();
  sim::Machine pmu_machine(pmu_workload.program, t3e.machine);
  if (pmu_workload.setup) pmu_workload.setup(pmu_machine);
  const std::vector<pmu::NativeEventCode> natives = {
      t3e.find_event("EV5_ISSUES")->code,
      t3e.find_event("EV5_CYCLES")->code};
  SimRig direct(true, true);
  auto assignment = direct.library->substrate().allocate(
      natives, std::vector<int>(natives.size(), 0));
  tally.check(assignment.ok(), "layers: allocate the direct natives");
  const std::vector<std::uint32_t> assign =
      assignment.ok() ? assignment.value() : std::vector<std::uint32_t>{0, 1};
  pmu::PmuModel pmu_model(t3e, pmu_machine);
  tally.op(static_cast<int>(pmu_model.program(natives, assign).error()));
  tally.op(static_cast<int>(pmu_model.start().error()));

  // --- substrate: a CounterContext from SimSubstrate::create_context ----
  sim::Workload sub_workload = kernel();
  sim::Machine sub_machine(sub_workload.program, t3e.machine);
  if (sub_workload.setup) sub_workload.setup(sub_machine);
  papi::SimSubstrate sim_substrate(sub_machine, t3e);
  auto ctx_or = sim_substrate.create_context();
  auto prog_or = sim_substrate.create_context();
  tally.check(ctx_or.ok() && prog_or.ok(), "layers: create sim contexts");
  std::unique_ptr<papi::CounterContext> ctx = std::move(ctx_or.value());
  std::unique_ptr<papi::CounterContext> prog_ctx = std::move(prog_or.value());
  tally.op(static_cast<int>(ctx->program(natives, assign).error()));
  tally.op(static_cast<int>(ctx->start().error()));

  // --- core: EventSets, one rig per running set -------------------------
  direct.set = direct.new_set({"PAPI_TOT_INS", "PAPI_TOT_CYC"}, false, tally);
  SimRig spanning(true, true);
  spanning.set = spanning.new_set(
      {"PAPI_TOT_INS", "mem::BANDWIDTH_RD", "net::MSG_SENT"}, false, tally);
  SimRig mux(true, true);
  mux.set = mux.new_set({"PAPI_TOT_INS", "PAPI_FP_INS", "PAPI_LD_INS",
                         "PAPI_SR_INS", "PAPI_BR_INS", "PAPI_L1_DCM"},
                        true, tally);
  SimRig read_ex(true, true);
  read_ex.set = read_ex.new_set(
      {"PAPI_TOT_INS", "PAPI_TOT_CYC", "mem::BANDWIDTH_RD"}, false, tally);
  SimRig reconfig(true, false);
  reconfig.set = reconfig.new_set({"PAPI_TOT_INS", "PAPI_FP_INS"}, false,
                                  tally);
  for (SimRig* rig : {&direct, &spanning, &mux, &read_ex}) {
    if (rig->set != nullptr) tally.op(static_cast<int>(rig->set->start().error()));
  }

  // --- capi: the global library over its own simulated machine ---------
  PAPIrepro_sim_t* capi_sim =
      PAPIrepro_sim_create("sim-t3e", "multiphase", kKernelReps);
  tally.op(PAPIrepro_bind_sim(capi_sim));
  tally.check(PAPI_library_init(PAPI_VER_CURRENT) == PAPI_VER_CURRENT,
              "layers: PAPI_library_init");
  int capi_set = PAPI_NULL;
  tally.op(PAPI_create_eventset(&capi_set));
  tally.op(PAPI_add_event(capi_set, PAPI_TOT_INS));
  tally.op(PAPI_add_event(capi_set, PAPI_TOT_CYC));
  tally.op(PAPI_start(capi_set));

  // --- perf: contexts from PerfEventSubstrate::create_context -----------
  papi::PerfEventSubstrate perf;
  std::vector<pmu::NativeEventCode> perf_natives;
  for (const char* name :
       {"PERF_COUNT_SW_TASK_CLOCK", "PERF_COUNT_SW_PAGE_FAULTS",
        "PERF_COUNT_SW_CONTEXT_SWITCHES", "PERF_COUNT_SW_CPU_MIGRATIONS"}) {
    auto code = perf.native_by_name(name);
    tally.op(static_cast<int>(code.error()));
    perf_natives.push_back(code.ok() ? code.value() : 0);
  }
  const std::vector<std::uint32_t> perf_assign = {0, 1, 2, 3};
  const std::span<const pmu::NativeEventCode> perf1(perf_natives.data(), 1);
  const std::span<const std::uint32_t> assign1(perf_assign.data(), 1);
  std::unique_ptr<papi::CounterContext> perf_ctx1, perf_ctx4, perf_prog;
  for (auto* c : {&perf_ctx1, &perf_ctx4, &perf_prog}) {
    auto made = perf.create_context();
    tally.op(static_cast<int>(made.error()));
    if (made.ok()) *c = std::move(made.value());
  }
  const bool perf_ok = perf_ctx1 && perf_ctx4 && perf_prog;
  if (perf_ok) {
    tally.op(static_cast<int>(perf_ctx1->program(perf1, assign1).error()));
    tally.op(static_cast<int>(
        perf_ctx4->program(perf_natives, perf_assign).error()));
    tally.op(static_cast<int>(perf_ctx1->start().error()));
    tally.op(static_cast<int>(perf_ctx4->start().error()));
  }

  // --- aggregate: AG1's population (1 live + 1023 stopped sets) ---------
  SimRig population(false, false);
  std::vector<int> handles;
  for (int i = 0; i < kAggregateRanks; ++i) {
    papi::EventSet* s =
        population.new_set({"PAPI_TOT_INS", "PAPI_TOT_CYC"}, false, tally);
    if (s == nullptr) continue;
    handles.push_back(s->handle());
    if (i == 0) continue;
    tally.op(static_cast<int>(s->start().error()));
    population.machine->run(10 + (i % 97) * 11);
    tally.op(static_cast<int>(s->stop().error()));
  }
  papi::EventSet* live = population.library->event_set(handles[0]).value();
  tally.op(static_cast<int>(live->start().error()));
  population.machine->run(5'000);
  PollPipeline pipeline(kAggregateRanks);
  std::vector<papi::SnapshotEntry> entries;
  std::vector<long long> values;
  tally.op(static_cast<int>(
      population.library->snapshot_all(entries, values).error()));
  pipeline.encode(entries, values);

  // --- the ladder -------------------------------------------------------
  Samples pmu_read, sub_read, sub_program, sub_start, sub_stop;
  Samples core_read, core_accum, core_spanning, core_mux, core_read_ex;
  Samples core_start, core_stop, core_reconfig;
  Samples capi_read, capi_start, capi_stop;
  Samples perf_read1, perf_read4, perf_program4, perf_start, perf_stop;
  Samples snapshot, encode, ingest, reduce, publish, region_read;
  std::uint64_t locks = 0;
  // PMU values land here so the compiler cannot drop the reads.
  volatile std::uint64_t sink = 0;
  long long vals[8] = {};
  std::uint64_t raw[8] = {};
  std::uint32_t flags[8] = {};
  int event_toggle = 0;
  const int fp_ins = static_cast<int>(papi::Preset::kFpIns);
  const int br_ins = static_cast<int>(papi::Preset::kBrIns);
  std::span<long long> out2(vals, 2), out3(vals, 3), out6(vals, 6);

  auto core_reads = [&](SimRig& rig, Samples& samples, auto&& op) {
    rig.machine->run(kStep);
    const std::uint64_t l0 = rig.library->lock_acquisitions();
    samples.push_back(time_calls(kBatch, failures, op));
    locks += rig.library->lock_acquisitions() - l0;
    attempted += kBatch;
  };

  std::vector<Rung> rungs = {
      {"pmu.read",
       [&] {
         pmu_machine.run(kStep);
         pmu_read.push_back(time_calls(kBatch, failures, [&] {
           auto a = pmu_model.read(assign[0]);
           auto b = pmu_model.read(assign[1]);
           sink = a.value() + b.value();
           return a.ok() && b.ok();
         }));
         attempted += kBatch;
       }},
      {"substrate.sim.read",
       [&] {
         sub_machine.run(kStep);
         sub_read.push_back(time_calls(kBatch, failures, [&] {
           return ok(ctx->read(std::span<std::uint64_t>(raw, 2)));
         }));
         attempted += kBatch;
       }},
      {"core.eventset.read",
       [&] {
         core_reads(direct, core_read, [&] { return ok(direct.set->read(out2)); });
       }},
      {"capi.read",
       [&] {
         PAPIrepro_sim_run(capi_sim, kStep);
         capi_read.push_back(time_calls(kBatch, failures, [&] {
           return PAPI_read(capi_set, vals) == PAPI_OK;
         }));
         attempted += kBatch;
       }},
      {"core.eventset.accum",
       [&] {
         core_reads(direct, core_accum,
                    [&] { return ok(direct.set->accum(out2)); });
       }},
      {"core.eventset.read_spanning",
       [&] {
         core_reads(spanning, core_spanning,
                    [&] { return ok(spanning.set->read(out3)); });
       }},
      {"core.eventset.read_mux",
       [&] {
         core_reads(mux, core_mux, [&] { return ok(mux.set->read(out6)); });
       }},
      {"core.eventset.read_ex",
       [&] {
         core_reads(read_ex, core_read_ex, [&] {
           return ok(read_ex.set->read_ex(out3, std::span(flags, 3)));
         });
       }},
      {"substrate.sim.program",
       [&] {
         sub_program.push_back(time_calls(kProgramBatch, failures, [&] {
           return ok(prog_ctx->program(natives, assign));
         }));
         attempted += kProgramBatch;
       }},
      {"substrate.sim.stop_start",
       [&] {
         const std::int64_t t0 = now_ns();
         failures += !ok(ctx->stop());
         const std::int64_t t1 = now_ns();
         failures += !ok(ctx->start());
         const std::int64_t t2 = now_ns();
         sub_stop.push_back(static_cast<double>(t1 - t0));
         sub_start.push_back(static_cast<double>(t2 - t1));
         attempted += 2;
       }},
      {"core.eventset.stop_start",
       [&] {
         const std::int64_t t0 = now_ns();
         failures += !ok(direct.set->stop(out2));
         const std::int64_t t1 = now_ns();
         failures += !ok(direct.set->start());
         const std::int64_t t2 = now_ns();
         core_stop.push_back(static_cast<double>(t1 - t0));
         core_start.push_back(static_cast<double>(t2 - t1));
         attempted += 2;
       }},
      {"capi.stop_start",
       [&] {
         const std::int64_t t0 = now_ns();
         failures += PAPI_stop(capi_set, vals) != PAPI_OK;
         const std::int64_t t1 = now_ns();
         failures += PAPI_start(capi_set) != PAPI_OK;
         const std::int64_t t2 = now_ns();
         capi_stop.push_back(static_cast<double>(t1 - t0));
         capi_start.push_back(static_cast<double>(t2 - t1));
         attempted += 2;
       }},
      {"core.eventset.reconfig",
       [&] {
         const int from = event_toggle ? br_ins : fp_ins;
         const int to = event_toggle ? fp_ins : br_ins;
         event_toggle ^= 1;
         const std::int64_t t0 = now_ns();
         failures += !ok(reconfig.set->remove_event(papi::EventId::preset(
             static_cast<papi::Preset>(from))));
         failures += !ok(reconfig.set->add_event(
             papi::EventId::preset(static_cast<papi::Preset>(to))));
         core_reconfig.push_back(static_cast<double>(now_ns() - t0));
         attempted += 2;
       }},
      {"substrate.perf.read_ev1",
       [&] {
         if (!perf_ok) return;
         perf_read1.push_back(time_calls(kPerfBatch, failures, [&] {
           return ok(perf_ctx1->read(std::span<std::uint64_t>(raw, 1)));
         }));
         attempted += kPerfBatch;
       }},
      {"substrate.perf.read_ev4",
       [&] {
         if (!perf_ok) return;
         perf_read4.push_back(time_calls(kPerfBatch, failures, [&] {
           return ok(perf_ctx4->read(std::span<std::uint64_t>(raw, 4)));
         }));
         attempted += kPerfBatch;
       }},
      {"substrate.perf.program_ev4",
       [&] {
         if (!perf_ok) return;
         perf_program4.push_back(time_calls(1, failures, [&] {
           return ok(perf_prog->program(perf_natives, perf_assign));
         }));
         attempted += 1;
       }},
      {"substrate.perf.stop_start",
       [&] {
         if (!perf_ok) return;
         const std::int64_t t0 = now_ns();
         failures += !ok(perf_ctx1->stop());
         const std::int64_t t1 = now_ns();
         failures += !ok(perf_ctx1->start());
         const std::int64_t t2 = now_ns();
         perf_stop.push_back(static_cast<double>(t1 - t0));
         perf_start.push_back(static_cast<double>(t2 - t1));
         attempted += 2;
       }},
      {"core.library.snapshot_all",
       [&] {
         const std::int64_t t0 = now_ns();
         failures += !ok(population.library->snapshot_all(entries, values));
         snapshot.push_back(static_cast<double>(now_ns() - t0) / kAggregateRanks);
         attempted += 1;
       }},
      {"aggregate.wire.encode",
       [&] {
         const std::int64_t t0 = now_ns();
         pipeline.encode(entries, values);
         encode.push_back(static_cast<double>(now_ns() - t0) / kAggregateRanks);
       }},
      {"aggregate.collector.ingest",
       [&] {
         const std::int64_t t0 = now_ns();
         const std::size_t frames = pipeline.ingest();
         ingest.push_back(static_cast<double>(now_ns() - t0) / kAggregateRanks);
         failures += frames == 0;
         attempted += 1;
       }},
      {"aggregate.collector.reduce",
       [&] {
         const std::int64_t t0 = now_ns();
         sink = pipeline.reduce(population.library->real_cycles()).ranks_live;
         reduce.push_back(static_cast<double>(now_ns() - t0));
       }},
      {"aggregate.region.publish",
       [&] {
         publish.push_back(time_calls(kBatch, failures, [&] {
           pipeline.publish();
           return true;
         }));
       }},
      {"aggregate.region.read",
       [&] {
         region_read.push_back(
             time_calls(kBatch, failures, [&] { return pipeline.read_region(); }));
         attempted += kBatch;
       }},
  };

  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(0.4 * config.seconds * 1e9);
  std::uint64_t rounds = 0;
  while (now_ns() < end) {
    const std::uint64_t op = spans.next_op();
    const std::uint64_t round = spans.next_id();
    const std::int64_t r0 = now_ns();
    for (Rung& rung : rungs) {
      const std::int64_t t0 = now_ns();
      rung.run();
      spans.record(rung.name, round, op, t0, now_ns());
    }
    spans.record_with_id(round, "ladder.round", 0, op, r0, now_ns());
    ++rounds;
  }
  tally.ops(attempted, static_cast<std::uint64_t>(failures));

  for (SimRig* rig : {&direct, &spanning, &mux, &read_ex}) {
    if (rig->set != nullptr) tally.op(static_cast<int>(rig->set->stop().error()));
  }
  tally.op(static_cast<int>(live->stop().error()));
  tally.op(PAPI_stop(capi_set, vals));
  PAPIrepro_sim_destroy(capi_sim);

  // --- metrics ----------------------------------------------------------
  const double pmu_p50 = p50(pmu_read);
  const double sub_p50 = p50(sub_read);
  const double core_p50 = p50(core_read);
  const double capi_p50 = p50(capi_read);
  report.set("pmu.read_ns", pmu_p50, "ns");
  report.set("substrate.sim.read_ns", sub_p50, "ns");
  report.set("substrate.sim.program_ns", p50(sub_program), "ns");
  report.set("substrate.sim.start_ns", p50(sub_start), "ns");
  report.set("substrate.sim.stop_ns", p50(sub_stop), "ns");
  report.set("substrate.perf.read_ns_ev1", p50(perf_read1), "ns");
  report.set("substrate.perf.read_ns_ev4", p50(perf_read4), "ns");
  report.set("substrate.perf.program_ns_ev4", p50(perf_program4), "ns");
  report.set("substrate.perf.start_ns", p50(perf_start), "ns");
  report.set("substrate.perf.stop_ns", p50(perf_stop), "ns");
  report.set("core.eventset.read_ns", core_p50, "ns");
  report.set("core.eventset.read_spanning_ns", p50(core_spanning), "ns");
  report.set("core.eventset.read_mux_ns", p50(core_mux), "ns");
  report.set("core.eventset.read_ex_ns", p50(core_read_ex), "ns");
  report.set("core.eventset.accum_ns", p50(core_accum), "ns");
  report.set("core.eventset.start_ns", p50(core_start), "ns");
  report.set("core.eventset.stop_ns", p50(core_stop), "ns");
  report.set("core.eventset.reconfig_ns", p50(core_reconfig), "ns");
  report.set("core.library.snapshot_all_ns_per_set", p50(snapshot), "ns");
  report.set("core.library.lock_acquisitions", static_cast<double>(locks),
             "count");
  report.set("capi.read_ns", capi_p50, "ns");
  report.set("capi.read.self_ns", capi_p50 - core_p50, "ns");
  report.set("core.eventset.read.self_ns", core_p50 - sub_p50, "ns");
  report.set("substrate.sim.read.self_ns", sub_p50 - pmu_p50, "ns");
  report.set("capi.start_stop.self_ns",
             (p50(capi_start) + p50(capi_stop)) -
                 (p50(core_start) + p50(core_stop)),
             "ns");
  report.set("aggregate.wire.encode_ns_per_set", p50(encode), "ns");
  report.set("aggregate.collector.ingest_ns_per_set", p50(ingest), "ns");
  report.set("aggregate.collector.reduce_ns", p50(reduce), "ns");
  report.set("aggregate.region.publish_ns", p50(publish), "ns");
  report.set("aggregate.region.read_ns", p50(region_read), "ns");
  report.set("aggregate.wire.bytes_per_rank",
             static_cast<double>(pipeline.wire_bytes()) / kAggregateRanks,
             "count");
  report.set("aggregate.collector.decode_errors",
             static_cast<double>(pipeline.stats().decode_errors), "count");

  // Layer sum check on the direct read: cumulative layers are ordered, and
  // the top layer matches the end-to-end direct read of the same run
  // within the two measurements' combined interquartile range.
  const bool ordered =
      pmu_p50 <= sub_p50 && sub_p50 <= core_p50 && core_p50 <= capi_p50;
  tally.check(ordered, "layers: pmu <= substrate <= core <= capi", capi_p50,
              core_p50);
  std::printf("layers: %llu rounds; direct read pmu %.2f <= substrate %.2f "
              "<= core %.2f <= capi %.2f ns: %s\n",
              static_cast<unsigned long long>(rounds), pmu_p50, sub_p50,
              core_p50, capi_p50, ordered ? "ordered" : "NOT ORDERED");
  if (traced.direct_p50_ns > 0) {
    const double gap = capi_p50 - traced.direct_p50_ns;
    const double spread = iqr(capi_read) + traced.direct_iqr_ns;
    tally.check(std::abs(gap) <= spread,
                "layers: top layer matches the end-to-end direct read",
                capi_p50, traced.direct_p50_ns);
    std::printf("layers: capi %.2f ns vs end-to-end direct read %.2f ns "
                "(spread %.2f ns): %s\n",
                capi_p50, traced.direct_p50_ns, spread,
                std::abs(gap) <= spread ? "match" : "MISMATCH");
    report.set("layers.capi_minus_e2e_ns", gap, "ns");
  } else {
    report.set("layers.capi_minus_e2e_ns", 0, "ns");
  }
}

}  // namespace perfbench
