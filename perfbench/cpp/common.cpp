#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <fstream>
#include <limits>
#include <thread>

#include "aggregate/wire.h"

namespace perfbench {

ThreadClock thread_clock() {
  ThreadClock c;
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    c.cpu_ns = static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
               ts.tv_nsec;
  }
  rusage usage{};
  if (getrusage(RUSAGE_THREAD, &usage) == 0) {
    c.voluntary_switches = usage.ru_nvcsw;
  }
  return c;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

void Windowed::close() {
  auto at = [&](double q) {
    const auto k =
        static_cast<std::size_t>(q * static_cast<double>(buf_.size() - 1));
    std::nth_element(buf_.begin(),
                     buf_.begin() + static_cast<std::ptrdiff_t>(k),
                     buf_.end());
    return buf_[k];
  };
  p99s_.push_back(at(0.99));
  p50s_.push_back(at(0.50));
  buf_.clear();
}

namespace {

std::vector<double> window_figures(const std::vector<const Windowed*>& parts,
                                   bool p99) {
  std::vector<double> all;
  for (const Windowed* w : parts) {
    const std::vector<double>& figures =
        p99 ? w->window_p99s() : w->window_p50s();
    if (!figures.empty()) {
      all.insert(all.end(), figures.begin(), figures.end());
    } else if (!w->partial().empty()) {
      all.push_back(percentile(w->partial(), p99 ? 0.99 : 0.5));
    }
  }
  return all;
}

}  // namespace

double pooled(const std::vector<const Windowed*>& parts, bool p99) {
  return median(window_figures(parts, p99));
}

double pooled_iqr(const std::vector<const Windowed*>& parts) {
  const std::vector<double> f = window_figures(parts, false);
  return percentile(f, 0.75) - percentile(f, 0.25);
}

bool Tally::check(bool ok, const char* what, double got, double want) {
  ops(1, ok ? 0 : 1);
  if (!ok && printed_.fetch_add(1, std::memory_order_relaxed) < 8) {
    std::fprintf(stderr, "check failed: %s (got %.17g, want %.17g)\n", what,
                 got, want);
  }
  return ok;
}

SpanRecorder::SpanRecorder(std::uint32_t recorder_id, std::size_t capacity)
    : id_(recorder_id), capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint64_t SpanRecorder::record(const char* name, std::uint64_t parent,
                                   std::uint64_t op, std::int64_t start_ns,
                                   std::int64_t end_ns,
                                   std::uint32_t calls) {
  if (spans_.size() == capacity_) {
    ++drops_;
    return 0;
  }
  const std::uint64_t id = next_id();
  spans_.push_back({name, id, parent, op, start_ns, end_ns, calls});
  return id;
}

void SpanRecorder::record_with_id(std::uint64_t id, const char* name,
                                  std::uint64_t parent, std::uint64_t op,
                                  std::int64_t start_ns, std::int64_t end_ns,
                                  std::uint32_t calls) {
  if (spans_.size() == capacity_) {
    ++drops_;
    return;
  }
  spans_.push_back({name, id, parent, op, start_ns, end_ns, calls});
}

bool write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<SpanRecorder>>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns,calls\n");
  for (const auto& r : recorders) {
    for (const SpanRecorder::Span& s : r->spans()) {
      std::fprintf(f,
                   "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%" PRId64
                   ",%" PRId64 ",%u\n",
                   s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns,
                   s.calls);
    }
  }
  return std::fclose(f) == 0;
}

void Report::set(const std::string& name, double value, const char* unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    metrics_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = metrics_.size();
  metrics_.push_back({name, value, unit});
}

void Report::print_human(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-40s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

std::string Report::json_metrics() const {
  std::string s = "{";
  char buf[96];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN or infinity; a non-finite value is a defect the
    // caller reports, never a number to print.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

namespace {

std::string first_line_with(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return line;
      std::size_t b = colon + 1;
      while (b < line.size() && line[b] == ' ') ++b;
      return line.substr(b);
    }
  }
  return "unknown";
}

std::string read_trimmed(const char* path) {
  std::ifstream in(path);
  std::string s;
  if (!std::getline(in, s)) return "unknown";
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

void print_host_fingerprint(std::FILE* out, bool hw_events_permitted) {
  std::fprintf(
      out,
      "host: {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"perf_event_paranoid\": \"%s\", "
      "\"hw_events_permitted\": %s}\n",
      json_escape(first_line_with("/proc/cpuinfo", "model name")).c_str(),
      std::thread::hardware_concurrency(), json_escape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE,
      json_escape(read_trimmed("/proc/sys/kernel/perf_event_paranoid"))
          .c_str(),
      hw_events_permitted ? "true" : "false");
}

PollPipeline::PollPipeline(std::uint32_t max_ranks)
    : collector_(
          aggregate::CollectorConfig{.max_ranks = max_ranks,
                                     .ranks_per_node = kFanIn,
                                     .num_metrics = kMetrics},
          nullptr) {
  oracle_values_.reserve(max_ranks);
}

void PollPipeline::encode(std::span<const papi::SnapshotEntry> entries,
                          std::span<const long long> values) {
  wire_.clear();
  for (std::size_t base = 0; base < entries.size(); base += kFanIn) {
    const std::size_t n = std::min<std::size_t>(kFanIn, entries.size() - base);
    (void)aggregate::encode_frame(
        static_cast<std::uint32_t>(base), entries[base].pub_cycles,
        entries.subspan(base, n), values, wire_,
        aggregate::kFrameModeRankRun);
  }
}

void PollPipeline::run(std::span<const papi::SnapshotEntry> entries,
                       std::span<const long long> values,
                       std::uint64_t now_cycles) {
  encode(entries, values);
  frames_accepted_ = ingest();
  reduce(now_cycles);
  publish();
  region_ok_ = read_region();
}

void PollPipeline::verify(std::span<const papi::SnapshotEntry> entries,
                          std::span<const long long> values, Tally& tally,
                          bool check_percentiles) {
  const aggregate::ClusterReduction& red = collector_.cluster();
  tally.check(frames_accepted_ == (entries.size() + kFanIn - 1) / kFanIn,
              "poll: every rank-run frame accepted",
              static_cast<double>(frames_accepted_),
              static_cast<double>((entries.size() + kFanIn - 1) / kFanIn));
  // Sequential oracle over the same snapshot (exact min/max/sum/count).
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    oracle_values_.clear();
    for (const papi::SnapshotEntry& e : entries) {
      if (m < e.num_values) oracle_values_.push_back(values[e.first_value + m]);
    }
    if (oracle_values_.empty()) continue;
    long long lo = std::numeric_limits<long long>::max();
    long long hi = std::numeric_limits<long long>::min();
    long long sum = 0;
    for (long long v : oracle_values_) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    const aggregate::MetricStats& ms = red.metrics[m];
    tally.check(ms.count == oracle_values_.size() && ms.min == lo &&
                          ms.max == hi && ms.sum == sum,
                      "poll: reduction equals the sequential oracle",
                      static_cast<double>(ms.sum), static_cast<double>(sum));
    if (check_percentiles) {
      std::sort(oracle_values_.begin(), oracle_values_.end());
      const auto exact = [&](double q) {
        auto i = static_cast<std::size_t>(
            q * static_cast<double>(oracle_values_.size()));
        return static_cast<double>(
            oracle_values_[std::min(i, oracle_values_.size() - 1)]);
      };
      // The collector's histogram reports bucket lower bounds within
      // 12.5 % of the exact order statistic.
      const auto within = [](double got, double want) {
        return got <= want && got >= want * 0.875 - 1.0;
      };
      tally.check(within(static_cast<double>(ms.p50), exact(0.50)) &&
                            within(static_cast<double>(ms.p95), exact(0.95)) &&
                            within(static_cast<double>(ms.p99), exact(0.99)),
                        "poll: percentiles within the histogram error",
                        static_cast<double>(ms.p50), exact(0.50));
    }
  }
  tally.check(region_ok_ &&
                        region_snapshot_.reduce_count == red.reduce_count &&
                        region_snapshot_.ranks_live == red.ranks_live &&
                        region_snapshot_.metrics[0].sum == red.metrics[0].sum &&
                        region_snapshot_.metrics[1].max == red.metrics[1].max,
                    "poll: region round-trips the reduction");
}

void wait_until(std::int64_t due_ns) {
  while (now_ns() < due_ns) {
  }
}

}  // namespace perfbench
