// The bench harness (bench/bench_util.h) that every gated bench reports
// through: its estimators, its interleaving, its thread barrier, and the
// JSON report whose gates decide a bench's exit code.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"

namespace papirepro::bench {
namespace {

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            ("papirepro_bench_" + std::string(info->name()) + "_" +
             std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string read(const std::string& file) const {
    std::ifstream in(path_ / file);
    return {std::istreambuf_iterator<char>(in), {}};
  }

 private:
  std::filesystem::path path_;
};

Stats ran_with_min(double min_ns) {
  return summarize({{min_ns, 0}, {min_ns + 1, 0}});
}

TEST(BenchHarness, SummarizeFixedSamples) {
  std::vector<Sample> samples;
  for (const double ns : {5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0}) {
    samples.push_back({ns, ns == 9.0 ? 1.0 : 0.0});
  }
  const Stats s = summarize(samples);
  EXPECT_TRUE(s.ran);
  EXPECT_DOUBLE_EQ(s.min_ns, 1.0);
  EXPECT_DOUBLE_EQ(s.median_ns, 5.5);
  EXPECT_DOUBLE_EQ(s.p10_ns, 1.9);
  EXPECT_DOUBLE_EQ(s.p90_ns, 9.1);
  EXPECT_DOUBLE_EQ(s.allocs, 0.1);

  const Stats odd = summarize({{3, 0}, {1, 0}, {2, 0}});
  EXPECT_DOUBLE_EQ(odd.median_ns, 2.0);
  EXPECT_DOUBLE_EQ(odd.p10_ns, 1.2);
  EXPECT_DOUBLE_EQ(odd.p90_ns, 2.8);
}

TEST(BenchHarness, MissingSampleMeansDidNotRun) {
  EXPECT_FALSE(summarize({}).ran);
  EXPECT_FALSE(summarize({{3, 0}, {}, {2, 0}}).ran);
  const std::vector<Stats> stats =
      measure_interleaved({Op{}, [] {}}, /*iters=*/10, /*reps=*/2);
  EXPECT_FALSE(stats[0].ran);
  EXPECT_TRUE(stats[1].ran);
}

TEST(BenchHarness, RepsRunRoundRobinAcrossScenarios) {
  std::string order;
  const std::vector<Stats> stats = interleave(
      {[&] { order += 'a'; return Sample{1, 0}; },
       [&] { order += 'b'; return Sample{2, 0}; },
       [&] { order += 'c'; return Sample{3, 0}; }},
      3);
  EXPECT_EQ(order, "abcabcabc");
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_DOUBLE_EQ(stats[2].min_ns, 3.0);
}

TEST(BenchHarness, MeasureCountsCallsAndAllocations) {
  int calls = 0;
  std::vector<std::unique_ptr<int>> keep;
  const std::vector<Stats> stats = measure_interleaved(
      {[&] { ++calls; }, [&] { keep.push_back(std::make_unique<int>(1)); }},
      /*iters=*/100, /*reps=*/3);
  EXPECT_EQ(calls, 64 + 3 * 100);  // warm-up, then every rep
  EXPECT_EQ(stats[0].allocs, 0.0);
  EXPECT_GE(stats[1].allocs, 1.0);
  EXPECT_TRUE(stats[0].ran && stats[1].ran);
}

TEST(BenchHarness, RunThreadsReleasesWhenAThreadNeverArms) {
  std::atomic<int> measured{0};
  run_threads(4, [&](int t, const auto& arm) {
    if (t == 2) return;  // a set-up failure: returns before arming
    arm();
    measured.fetch_add(1);
  });
  EXPECT_EQ(measured.load(), 3);
}

TEST(BenchHarness, ReportWritesTheOneSchema) {
  TempDir dir;
  Report report("schema");
  report.stats("direct", "read", ran_with_min(12.5));
  report.stats("broken", "read", Stats{});
  report.value("direct", "cycles", 42);
  report.at_most("direct_read_ns", ran_with_min(12.5), 20.0);
  ASSERT_EQ(report.finish(dir.path()), 0);

  const std::string json = dir.read("BENCH_schema.json");
  for (const char* key :
       {"\"bench\": \"schema\"", "\"host\": {", "\"cpu\": ", "\"nproc\": ",
        "\"compiler\": ", "\"build_type\": ", "\"scenarios\": {",
        "\"direct\": {\"read\": {\"min_ns\": 12.5, \"median_ns\": 13, "
        "\"p10_ns\": 12.6, \"p90_ns\": 13.4, \"allocs\": 0}, "
        "\"cycles\": 42}",
        "\"broken\": {\"read\": null}", "\"gates\": [",
        "{\"name\": \"direct_read_ns\", \"value\": 12.5, \"bound\": 20, "
        "\"ok\": true}"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

TEST(BenchHarness, RedGateGivesNonzeroExit) {
  TempDir dir;
  Report green("green");
  green.ratio_at_most("ratio", ran_with_min(11), ran_with_min(10), 1.25);
  EXPECT_EQ(green.finish(dir.path()), 0);

  Report red("red");
  red.ratio_at_most("ratio", ran_with_min(11), ran_with_min(10), 1.25);
  red.gate("stops", 1, 0, false);
  EXPECT_NE(red.finish(dir.path()), 0);
  EXPECT_NE(dir.read("BENCH_red.json").find("\"ok\": false"),
            std::string::npos);
}

TEST(BenchHarness, ScenarioThatDidNotRunMakesItsGatesRed) {
  TempDir dir;
  const Stats ran = ran_with_min(10);
  const Stats missing;  // all zeros: every numeric bound would pass
  Report report("missing");
  EXPECT_FALSE(report.at_most("abs", missing, 20.0));
  EXPECT_FALSE(report.ratio_at_most("ratio_num", missing, ran, 1.25));
  EXPECT_FALSE(report.ratio_at_most("ratio_den", ran, missing, 1.25));
  EXPECT_FALSE(report.no_allocs("allocs", missing));
  EXPECT_FALSE(report.gate("generic", 0, 1, true, {ran, missing}));
  EXPECT_TRUE(report.gate("ran", 0, 1, true, {ran}));
  EXPECT_NE(report.finish(dir.path()), 0);
}

}  // namespace
}  // namespace papirepro::bench
