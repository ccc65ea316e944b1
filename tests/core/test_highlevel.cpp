#include "core/highlevel.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::SimFixture;

TEST(HighLevel, StartReadStopCounters) {
  SimFixture f(sim::make_saxpy(5'000), pmu::sim_x86(),
               {.charge_costs = false});
  HighLevel hl(*f.library);
  EXPECT_EQ(hl.num_counters(), 4);

  const EventId events[] = {EventId::preset(Preset::kFmaIns),
                            EventId::preset(Preset::kTotIns)};
  ASSERT_TRUE(hl.start_counters(events).ok());
  f.machine->run(10'000);
  long long values[2] = {};
  ASSERT_TRUE(hl.read_counters(values).ok());
  EXPECT_GT(values[0], 0);
  // read_counters resets: a fresh read right away is small.
  long long again[2] = {};
  ASSERT_TRUE(hl.read_counters(again).ok());
  EXPECT_LT(again[0], values[0]);

  f.machine->run();
  long long fin[2] = {};
  ASSERT_TRUE(hl.stop_counters(fin).ok());
  // Sum of all reads equals the total.
  EXPECT_EQ(values[0] + again[0] + fin[0], 5'000);
}

TEST(HighLevel, AccumCounters) {
  SimFixture f(sim::make_saxpy(5'000), pmu::sim_x86(),
               {.charge_costs = false});
  HighLevel hl(*f.library);
  const EventId events[] = {EventId::preset(Preset::kFmaIns)};
  ASSERT_TRUE(hl.start_counters(events).ok());
  long long acc[1] = {100};  // accum adds into existing values
  f.machine->run(5'000);
  ASSERT_TRUE(hl.accum_counters(acc).ok());
  f.machine->run();
  ASSERT_TRUE(hl.accum_counters(acc).ok());
  long long fin[1] = {};
  ASSERT_TRUE(hl.stop_counters(fin).ok());
  EXPECT_EQ(acc[0] + fin[0], 100 + 5'000);
}

// An undersized stop_counters() is rejected before anything stops: the
// counters keep running, and a full-size stop then delivers the totals
// and frees the high-level API for the next start.
TEST(HighLevel, UndersizedStopLeavesCountersRunning) {
  SimFixture f(sim::make_saxpy(5'000), pmu::sim_x86(),
               {.charge_costs = false});
  HighLevel hl(*f.library);
  const EventId events[] = {EventId::preset(Preset::kFmaIns),
                            EventId::preset(Preset::kTotIns)};
  ASSERT_TRUE(hl.start_counters(events).ok());
  f.machine->run();
  long long one[1] = {};
  EXPECT_EQ(hl.stop_counters(one).error(), Error::kInvalid);
  EXPECT_EQ(hl.start_counters(events).error(), Error::kIsRunning);
  long long fin[2] = {};
  ASSERT_TRUE(hl.stop_counters(fin).ok());
  EXPECT_EQ(fin[0], 5'000);
  ASSERT_TRUE(hl.start_counters(events).ok());
  ASSERT_TRUE(hl.stop_counters(fin).ok());
}

TEST(HighLevel, StartTwiceRejected) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HighLevel hl(*f.library);
  const EventId events[] = {EventId::preset(Preset::kTotIns)};
  ASSERT_TRUE(hl.start_counters(events).ok());
  EXPECT_EQ(hl.start_counters(events).error(), Error::kIsRunning);
  long long v[1];
  ASSERT_TRUE(hl.stop_counters(v).ok());
}

TEST(HighLevel, FlopsNormalizesFmaOnX86) {
  // saxpy does n FMAs; natively FP_OPS_RETIRED counts n, but PAPI_flops
  // must report 2n.
  SimFixture f(sim::make_saxpy(100'000), pmu::sim_x86(),
               {.charge_costs = false});
  HighLevel hl(*f.library);
  auto first = hl.flops();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().flops, 0);
  f.machine->run();
  auto info = hl.flops();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().flops, 200'000);
  EXPECT_GT(info.value().real_time_s, 0.0);
  EXPECT_GT(info.value().mflops, 0.0);
}

TEST(HighLevel, FlopsExcludesRoundingInstructionsOnPower3) {
  // fcvt_mixed does n fadds + n converts.  Raw PM_FPU_INS says 2n; the
  // flops call reports n (the Section 4 normalization).
  SimFixture f(sim::make_fcvt_mixed(50'000), pmu::sim_power3(),
               {.charge_costs = false});
  HighLevel hl(*f.library);
  ASSERT_TRUE(hl.flops().ok());
  f.machine->run();
  auto info = hl.flops();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().flops, 50'000);
}

TEST(HighLevel, FlopsCountsFmaTwiceOnPower3) {
  SimFixture f(sim::make_saxpy(40'000), pmu::sim_power3(),
               {.charge_costs = false});
  HighLevel hl(*f.library);
  ASSERT_TRUE(hl.flops().ok());
  f.machine->run();
  EXPECT_EQ(hl.flops().value().flops, 80'000);
}

TEST(HighLevel, IpcReportsPlausibleRatio) {
  SimFixture f(sim::make_saxpy(50'000), pmu::sim_x86(),
               {.charge_costs = false});
  HighLevel hl(*f.library);
  ASSERT_TRUE(hl.ipc().ok());
  f.machine->run();
  auto info = hl.ipc();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().instructions,
            static_cast<long long>(f.machine->retired()));
  EXPECT_GT(info.value().ipc, 0.1);
  EXPECT_LE(info.value().ipc, 1.0);  // scalar machine: IPC <= 1
}

TEST(HighLevel, FlopsAndIpcAreExclusive) {
  SimFixture f(sim::make_saxpy(1'000), pmu::sim_x86());
  HighLevel hl(*f.library);
  ASSERT_TRUE(hl.flops().ok());
  EXPECT_EQ(hl.ipc().error(), Error::kConflict);
}

TEST(HighLevel, MixingHighAndLowLevelRespectsOneRunningSet) {
  SimFixture f(sim::make_saxpy(1'000), pmu::sim_x86());
  HighLevel hl(*f.library);
  const EventId events[] = {EventId::preset(Preset::kTotIns)};
  ASSERT_TRUE(hl.start_counters(events).ok());
  EventSet& low = f.new_set();
  ASSERT_TRUE(low.add_preset(Preset::kTotCyc).ok());
  EXPECT_EQ(low.start().error(), Error::kIsRunning);
  long long v[1];
  ASSERT_TRUE(hl.stop_counters(v).ok());
  EXPECT_TRUE(low.start().ok());
  ASSERT_TRUE(low.stop().ok());
}

}  // namespace
}  // namespace papirepro::papi
