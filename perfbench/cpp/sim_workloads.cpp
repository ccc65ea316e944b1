// counting, monitoring and regions: the C API over simulated machines,
// one machine per worker thread (PAPIrepro_sim_bind_thread).
//
// Every run has a main phase, which gives the workload's own end-to-end
// metrics, and a side phase, which measures the operations the main loop
// leaves out on the same library and sets, so that every run reports
// every end-to-end metric:
//
//   workload    main phase                    side phase
//   counting    T threads read (closed loop)  T-1 threads bracket + poller
//   monitoring  T-1 threads read + poller     T-1 threads bracket
//   regions     T threads bracket             T-1 threads bracket + poller
//
// T = nproc - 1 (at most 4): with the poll on the main thread no phase
// keeps more than T timed threads busy.  The last vCPU is left to the rest
// of the system, to the main thread while it only sleeps, and in regions
// to the trace drainer, instead of them preempting a timed thread.
//
// Readers hold one set of each kind (direct, spanning, multiplexed,
// read_ex) and run them in turn, one at a time, switching every 200 ms, so
// each kind is timed on every thread.  Every latency metric is the mean
// over slots (a set kind and call, or a regions set) of that slot's
// figure, so each slot weighs the same whatever its call rate.
//
// counting and monitoring run on sim-t3e, whose counters are read by
// register moves (6 cycles, no cache pollution).  The C API always charges
// the platform's counter-access costs, and on sim-x86 simulating a read's
// 2,500-cycle system call and its 48 polluted cache lines takes about
// 340 ns of host time, nine tenths of a read; on sim-t3e a read's host
// time is the library's own.  regions runs on sim-power3 for its group
// allocation.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <condition_variable>
#include <mutex>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "capi/papi.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kBatch = 32;           ///< read calls per latency sample
constexpr long long kStep = 16;      ///< instructions simulated per step
constexpr std::int64_t kRotateNs = 200'000'000;     ///< reader kind switch
constexpr int kRegionsPerReconfig = 64;
constexpr int kMonitoringRanks = 1024;
/// Off-CPU time that marks the poller as preempted.
constexpr std::int64_t kPreemptedNs = 50'000;
/// multiphase repetitions: far more instructions than any run simulates.
constexpr long long kKernelReps = 1'000'000;
constexpr int kMaxValues = 8;
/// regions: records per trace ring, how often the drainer empties them,
/// and the most records the workers let the rings buffer.  A dump holds
/// what the rings buffered since the last one, and the process's peak
/// memory grows with the largest dump.  The drainer keeps up only on
/// average: while the host keeps it off the CPU the rings fill, and then
/// either records drop or, with rings large enough not to drop, the
/// largest dump is set by the scheduler.  So a worker that finds more
/// than kTraceBacklogMax records buffered waits for the drainer, as a
/// tracing tool blocks rather than drops when its buffers are full
/// (about 8 ms of the workers' records; the rings never fill).
constexpr unsigned long long kTraceRingCapacity = 1 << 14;
constexpr std::int64_t kDrainPeriodNs = 2'000'000;
constexpr long long kTraceBacklogMax = 12'288;

enum Phase : int { kSetup, kMain, kSide, kDone };

enum class Kind { kDirect, kSpanning, kMux, kReadEx, kRegions };
constexpr Kind kReaderKinds[] = {Kind::kDirect, Kind::kSpanning, Kind::kMux,
                                 Kind::kReadEx};

/// Latency samples are kept apart per slot -- a reader kind and call, or a
/// regions set -- so that each slot's figures come from one distribution
/// (an accum costs about twice a read; a median over a mix of the two
/// sits in the gap between them and jumps).
constexpr std::size_t kNumSlots = 11;
const char* const kSlotNames[kNumSlots] = {
    "direct read", "direct accum", "spanning read", "spanning accum",
    "mux read",    "mux accum",    "read_ex",       "regions set 1",
    "regions set 2", "regions set 3", ""};
std::size_t reader_slot(Kind kind, bool accum) {
  return 2 * static_cast<std::size_t>(kind) + (accum ? 1 : 0);
}
constexpr std::size_t kFirstRegionsSlot = 7;

/// PAPI_TOT_INS is always event 0: except in a multiplexed set its count
/// is known exactly (the instructions the thread simulated since the last
/// start or reset).
std::vector<const char*> events_of(Kind kind) {
  switch (kind) {
    case Kind::kDirect:
      return {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    case Kind::kSpanning:
      return {"PAPI_TOT_INS", "mem::BANDWIDTH_RD", "net::MSG_SENT"};
    case Kind::kMux:  // six events on sim-t3e's three counters
      return {"PAPI_TOT_INS", "PAPI_FP_INS", "PAPI_LD_INS",
              "PAPI_SR_INS",  "PAPI_BR_INS", "PAPI_L1_DCM"};
    case Kind::kReadEx:
      return {"PAPI_TOT_INS", "PAPI_TOT_CYC", "mem::BANDWIDTH_RD"};
    default:
      return {};
  }
}

/// Events swapped into a regions set on reconfiguration (each fits a
/// sim-power3 group beside PAPI_TOT_INS).
constexpr const char* kReconfigEvents[] = {
    "PAPI_FP_INS",  "PAPI_BR_INS",  "PAPI_FMA_INS", "PAPI_LD_INS",
    "PAPI_SR_INS",  "PAPI_BR_MSP",  "PAPI_L1_DCA",  "PAPI_L1_DCM",
    "PAPI_L2_TCM",  "PAPI_L1_ICM",  "PAPI_TLB_DM",  "PAPI_TLB_IM",
    "PAPI_FDV_INS", "PAPI_STL_CCY", "PAPI_BR_TKN"};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin(pthread_t thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(thread, sizeof set, &set);
}

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  // Single writer: the owning worker.  The main thread only loads.
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

using BySlot = std::array<Windowed, kNumSlots>;

struct Worker {
  int index = 0;
  bool reader = true;  ///< counting/monitoring; false in regions
  PAPIrepro_sim_t* sim = nullptr;
  std::vector<int> sets;
  std::vector<Kind> kinds;          ///< kinds[i] is the kind of sets[i]
  std::vector<std::size_t> slots;   ///< slots[i]: sets[i]'s read slot
  std::size_t current = 0;  ///< readers: index of the running set
  std::atomic<int> running_set{PAPI_NULL};  ///< read by the poller
  std::thread thread;
  std::uint64_t rng = 0;
  std::int64_t setup_ns = 0;  ///< binding and first start, set before ready

  // Main phase; read_traced holds the traced chunks of a traced run.
  BySlot read, read_traced, bracket;
  // Side phase.
  BySlot side_bracket;
  // Sampled by the main thread.
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> rotations{0};
  // Work done and time charged (see ChargedClock), by phase, for the rates.
  std::uint64_t work[2] = {0, 0};  ///< main reads (regions), side regions
  std::int64_t charged_ns[2] = {0, 0};
  // Traced chunks: time inside PAPIrepro_sim_run and in the whole loop.
  std::int64_t sim_ns = 0;
  std::int64_t loop_ns = 0;

  std::uint64_t traced_calls = 0;  ///< successful start/read/stop calls
  std::uint64_t stops = 0;         ///< successful PAPI_stop calls
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;
  long long retired_since_reset = 0;
  std::uint64_t regions_done = 0;
  std::uint64_t trace_waits = 0;  ///< regions: waits for the drainer
  std::size_t next_set = 0;
  int reconfig_code = 0;  ///< event currently in the reconfigured set

  std::unique_ptr<SpanRecorder> spans;
};

int event_code(const char* name) {
  int code = 0;
  return PAPI_event_name_to_code(name, &code) == PAPI_OK ? code : 0;
}

std::vector<const Windowed*> slot_parts(
    const std::vector<std::unique_ptr<Worker>>& workers,
    BySlot Worker::*field, std::size_t slot) {
  std::vector<const Windowed*> parts;
  for (const auto& w : workers) parts.push_back(&((*w).*field)[slot]);
  return parts;
}

/// Mean over slots of the slot's figure, each slot's figure being the
/// median of its window figures pooled over every thread.
double slot_mean(const std::vector<std::unique_ptr<Worker>>& workers,
                 BySlot Worker::*field, bool p99) {
  double sum = 0;
  int slots = 0;
  for (std::size_t k = 0; k < kNumSlots; ++k) {
    const double v = pooled(slot_parts(workers, field, k), p99);
    if (v > 0) {
      sum += v;
      ++slots;
    }
  }
  return slots == 0 ? 0 : sum / slots;
}

class SimWorkload {
 public:
  SimWorkload(const Config& config, Tally& tally)
      : config_(config),
        tally_(tally),
        counting_(config.workload == "counting"),
        monitoring_(config.workload == "monitoring"),
        regions_(config.workload == "regions"),
        pipeline_(kMonitoringRanks + 64) {
    const int t = std::max(1, config.threads);
    num_workers_ = monitoring_ ? std::max(1, t - 1) : t;
    side_workers_ = std::max(1, t - 1);
    entries_c_.resize(kMonitoringRanks + 64);
    entries_.reserve(entries_c_.size());
    values_.resize(entries_c_.size() * kMaxValues);
    last_pub_.assign(entries_c_.size() + 1, 0);
    live_.assign(entries_c_.size() + 1, 0);
  }

  /// Builds everything up to the first timed operation; returns seconds.
  double setup();
  /// Times `reps` set-ups, each followed by a teardown and a pause, in a
  /// child process; returns the set-up times.
  std::vector<double> setups_in_child(int reps);
  void teardown();
  void run(Report& report, SpanSet& spans, TracedRead& traced);

 private:
  void build_sets(Worker& w);
  void worker_main(Worker& w);
  void start_running(Worker& w);
  void stop_running(Worker& w);
  void read_loop(Worker& w);
  void rotate(Worker& w);
  void bracket_loop(Worker& w, Phase phase, bool measured);
  int read_op(Kind kind, int set, long long* values, int* flags, bool accum);
  void reconfigure(Worker& w);
  void drive(Phase phase, double seconds, bool poll);
  void set_phase(Phase phase) {
    {
      const std::lock_guard<std::mutex> lock(phase_mutex_);
      phase_.store(phase);
    }
    phase_cv_.notify_all();
  }
  void poll_once(Phase phase, std::int64_t due_ns);
  void place_threads(int slice, Phase phase);
  void drainer_main();
  long long drain_trace();
  void record(Worker& w, int rc) {
    ++w.calls;
    if (rc != PAPI_OK) ++w.failures;
  }
  void record_stop(Worker& w, int rc) {
    record(w, rc);
    if (rc == PAPI_OK) ++w.stops;
  }
  bool check_ins(long long got, long long want);
  /// regions: trace records made (a start, read and stop per region) and
  /// not yet dumped.
  long long trace_backlog() const {
    return 3 * static_cast<long long>(total(&Worker::regions)) -
           dumped_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t total(std::atomic<std::uint64_t> Worker::*counter) const {
    std::uint64_t sum = 0;
    for (const auto& w : workers_) {
      sum += ((*w).*counter).load(std::memory_order_relaxed);
    }
    return sum;
  }

  const Config& config_;
  Tally& tally_;
  const bool counting_, monitoring_, regions_;
  int num_workers_ = 1;
  int side_workers_ = 1;

  PAPIrepro_sim_t* primary_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> reconfig_pool_;
  std::atomic<int> phase_{kSetup};
  // Idle workers sleep on phase_cv_ rather than waking to poll phase_.
  std::mutex phase_mutex_;
  std::condition_variable phase_cv_;
  std::atomic<int> ready_{0};
  std::atomic<bool> traced_{false};
  const std::vector<int> cpus_ = allowed_cpus();

  // Poller and rates (main thread).
  PollPipeline pipeline_;
  std::vector<PAPIrepro_snapshot_t> entries_c_;
  std::vector<papi::SnapshotEntry> entries_;
  std::vector<long long> values_;
  std::vector<std::uint64_t> last_pub_;
  std::vector<char> live_;
  std::vector<int> live_handles_;
  Windowed poll_ns_{kPollWindow}, poll_late_ns_{kPollWindow};
  std::uint64_t polls_ = 0;
  std::uint64_t polls_preempted_ = 0;
  std::int64_t preempted_until_ = 0;
  std::uint64_t main_allocs_ = 0;  ///< heap allocations in main slices
  std::uint64_t main_calls_ = 0;   ///< library calls in main slices
  std::uint64_t live_entries_ = 0;
  std::uint64_t fresh_entries_ = 0;
  std::unique_ptr<SpanRecorder> poll_spans_ =
      std::make_unique<SpanRecorder>(0, 1 << 14);

  // regions: the trace drainer thread.
  std::thread drainer_;
  std::atomic<bool> draining_{false};
  std::atomic<long long> dumped_records_{0};
};

double SimWorkload::setup() {
  // The machines stand for the hardware and the workers for the
  // benchmark's own bookkeeping: both are built before the clock starts.
  const char* platform = regions_ ? "sim-power3" : "sim-t3e";
  primary_ = PAPIrepro_sim_create(platform, "multiphase", kKernelReps);
  tally_.check(primary_ != nullptr, "setup: create the primary machine");
  workers_.clear();
  std::uint64_t seed_state = config_.seed;
  for (int i = 0; i < num_workers_; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->reader = !regions_;
    w->sim = PAPIrepro_sim_create(platform, "multiphase", kKernelReps);
    tally_.check(w->sim != nullptr, "setup: create a rank machine");
    w->rng = splitmix(seed_state);
    w->spans = std::make_unique<SpanRecorder>(i + 1, 1 << 14);
    workers_.push_back(std::move(w));
  }

  const std::int64_t t0 = now_ns();
  tally_.op(PAPIrepro_bind_sim(primary_));
  tally_.check(PAPI_library_init(PAPI_VER_CURRENT) == PAPI_VER_CURRENT,
               "setup: PAPI_library_init");
  if (regions_) {
    // A tracing tool's configuration: the library's trace rings record
    // every start, read and stop, and a drainer thread empties them
    // while the workload runs (drainer_main).
    tally_.op(PAPIrepro_set_trace(1, kTraceRingCapacity));
    reconfig_pool_.clear();
    int probe = PAPI_NULL;
    tally_.op(PAPI_create_eventset(&probe));
    tally_.op(PAPI_add_event(probe, PAPI_TOT_INS));
    for (const char* name : kReconfigEvents) {
      const int code = event_code(name);
      if (code != 0 && PAPI_add_event(probe, code) == PAPI_OK) {
        reconfig_pool_.push_back(code);
        tally_.op(PAPI_remove_event(probe, code));
      }
    }
    tally_.op(PAPI_destroy_eventset(&probe));
    tally_.check(reconfig_pool_.size() >= 2,
                 "setup: regions reconfiguration pool",
                 static_cast<double>(reconfig_pool_.size()), 2);
  }

  for (auto& w : workers_) build_sets(*w);

  if (monitoring_) {
    // Stopped sets standing for remote ranks' last publications, stopped
    // at staggered machine times so the values have a real spread.
    const int stopped = kMonitoringRanks - num_workers_ * 4;
    for (int i = 0; i < stopped; ++i) {
      int set = PAPI_NULL;
      tally_.op(PAPI_create_eventset(&set));
      tally_.op(PAPI_add_event(set, PAPI_TOT_INS));
      tally_.op(PAPI_add_event(set, PAPI_TOT_CYC));
      tally_.op(PAPI_start(set));
      PAPIrepro_sim_run(primary_,
                        10 + (i % 97) * 11 +
                            static_cast<long long>(splitmix(seed_state) % 7));
      long long v[2];
      tally_.op(PAPI_stop(set, v));
    }
  }

  // Set-up time is the library work: this thread's part plus the slowest
  // worker's own binding and first start.  How long the scheduler takes
  // to run a new thread is the host's, not the library's.
  const std::int64_t main_ns = now_ns() - t0;
  set_phase(kSetup);
  ready_.store(0);
  for (auto& w : workers_) {
    Worker* raw = w.get();
    raw->thread = std::thread([this, raw] { worker_main(*raw); });
  }
  while (ready_.load() < num_workers_) std::this_thread::yield();
  std::int64_t worker_ns = 0;
  for (const auto& w : workers_) worker_ns = std::max(worker_ns, w->setup_ns);
  return static_cast<double>(main_ns + worker_ns) * 1e-9;
}

void SimWorkload::build_sets(Worker& w) {
  std::vector<std::vector<const char*>> specs;
  if (w.reader) {
    for (Kind k : kReaderKinds) {
      specs.push_back(events_of(k));
      w.kinds.push_back(k);
      w.slots.push_back(reader_slot(k, false));
    }
    w.current = static_cast<std::size_t>(w.index) % specs.size();
  } else {
    specs = {{"PAPI_TOT_INS", "PAPI_TOT_CYC"},
             {"PAPI_TOT_INS", "PAPI_LD_INS", "PAPI_SR_INS"},
             {"PAPI_TOT_INS"}};
    w.kinds.assign(specs.size(), Kind::kRegions);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      w.slots.push_back(kFirstRegionsSlot + i);
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    int set = PAPI_NULL;
    tally_.op(PAPI_create_eventset(&set));
    if (w.kinds[i] == Kind::kMux) tally_.op(PAPI_set_multiplex(set));
    for (const char* name : specs[i]) {
      tally_.op(PAPI_add_named_event(set, name));
    }
    w.sets.push_back(set);
  }
  if (!w.reader) {
    w.reconfig_code = reconfig_pool_[splitmix(w.rng) % reconfig_pool_.size()];
    tally_.op(PAPI_add_event(w.sets[2], w.reconfig_code));
  }
}

void SimWorkload::worker_main(Worker& w) {
  const std::int64_t t0 = now_ns();
  tally_.op(PAPIrepro_sim_bind_thread(w.sim));
  if (w.reader) start_running(w);
  w.setup_ns = now_ns() - t0;
  ready_.fetch_add(1);
  for (int phase = phase_.load(); phase != kDone; phase = phase_.load()) {
    const bool active = phase == kMain || (phase == kSide &&
                                           w.index < side_workers_);
    if (!active) {
      std::unique_lock<std::mutex> lock(phase_mutex_);
      phase_cv_.wait(lock, [&] { return phase_.load() != phase; });
      continue;
    }
    if (phase == kMain && w.reader) {
      if (w.running_set.load() == PAPI_NULL) start_running(w);
      read_loop(w);
      continue;
    }
    if (w.reader) stop_running(w);
    // counting and monitoring measure brackets in the side phase; regions
    // keeps its main loop going under the poller, unmeasured.
    bracket_loop(w, static_cast<Phase>(phase),
                 /*measured=*/phase == kMain || w.reader);
  }
  if (w.running_set.load() != PAPI_NULL) stop_running(w);
  tally_.ops(w.calls, w.failures);
  w.calls = w.failures = 0;
}

void SimWorkload::start_running(Worker& w) {
  record(w, PAPI_start(w.sets[w.current]));
  w.running_set.store(w.sets[w.current]);
  w.retired_since_reset = 0;
}

void SimWorkload::stop_running(Worker& w) {
  if (w.running_set.load() == PAPI_NULL) return;
  long long v[kMaxValues];
  record_stop(w, PAPI_stop(w.running_set.load(), v));
  w.running_set.store(PAPI_NULL);
}

bool SimWorkload::check_ins(long long got, long long want) {
  return tally_.check(got == want,
                      "PAPI_TOT_INS equals the instructions simulated",
                      static_cast<double>(got), static_cast<double>(want));
}

int SimWorkload::read_op(Kind kind, int set, long long* values, int* flags,
                         bool accum) {
  if (kind == Kind::kReadEx) return PAPIrepro_read_ex(set, values, flags);
  return accum ? PAPI_accum(set, values) : PAPI_read(set, values);
}

void SimWorkload::rotate(Worker& w) {
  stop_running(w);
  w.current = (w.current + 1) % w.sets.size();
  start_running(w);
  bump(w.rotations, 1);
}

void SimWorkload::read_loop(Worker& w) {
  long long values[kMaxValues] = {};
  int flags[kMaxValues] = {};
  std::uint64_t batch = 0;
  ChargedClock charged;
  charged.start(now_ns());
  std::int64_t next_rotation = now_ns() + kRotateNs;
  while (phase_.load(std::memory_order_relaxed) == kMain) {
    const int set = w.sets[w.current];
    const Kind kind = w.kinds[w.current];
    const bool traced = traced_.load(std::memory_order_relaxed);
    const std::int64_t s0 = now_ns();
    w.retired_since_reset += PAPIrepro_sim_run(w.sim, kStep);
    const bool accum = kind != Kind::kReadEx && (batch & 1) != 0;
    const std::size_t k = reader_slot(kind, accum);
    if (accum) std::fill(std::begin(values), std::end(values), 0);
    int failed = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      failed += read_op(kind, set, values, flags, accum) != PAPI_OK;
    }
    const std::int64_t t1 = now_ns();
    const double per_call = static_cast<double>(t1 - t0) / kBatch;
    w.calls += kBatch;
    w.failures += static_cast<std::uint64_t>(failed);
    bump(w.reads, kBatch);
    if (traced) {
      w.sim_ns += t0 - s0;
      w.loop_ns += t1 - s0;
      const std::uint64_t op = w.spans->next_op();
      const std::uint64_t parent = w.spans->record("batch", 0, op, s0, t1);
      w.spans->record("sim.step", parent, op, s0, t0);
      w.spans->record(kind == Kind::kReadEx ? "capi.read_ex"
                      : accum               ? "capi.accum"
                                            : "capi.read",
                      parent, op, t0, t1, kBatch);
      // The traced sample includes recording the batch's spans, so the
      // traced minus the untraced figure is what tracing costs a read.
      w.read_traced[k].add(static_cast<double>(now_ns() - t0) / kBatch);
    } else {
      w.read[k].add(per_call);
    }
    if (kind != Kind::kMux && failed == 0) {
      // After an accum batch the first call returned everything since the
      // last reset and the rest returned 0.
      check_ins(values[0], w.retired_since_reset);
      if (accum) w.retired_since_reset = 0;
    }
    if (kind == Kind::kReadEx) {
      bool valid = true;
      for (std::size_t i = 0; i < events_of(kind).size(); ++i) {
        valid &= flags[i] == PAPIREPRO_READ_VALID;
      }
      tally_.check(valid, "every read_ex flag is valid");
    }
    ++batch;
    charged.tick(t1);
    if (t1 >= next_rotation) {
      rotate(w);
      next_rotation = t1 + kRotateNs;
    }
  }
  w.work[kMain - 1] += batch * kBatch;
  w.charged_ns[kMain - 1] += charged.stop(now_ns());
}

void SimWorkload::bracket_loop(Worker& w, Phase phase, bool measured) {
  long long values[kMaxValues] = {};
  int flags[kMaxValues] = {};
  ChargedClock charged;
  charged.start(now_ns());
  std::uint64_t regions = 0;
  while (phase_.load(std::memory_order_relaxed) == phase) {
    const std::size_t i = w.next_set;
    w.next_set = (w.next_set + 1) % w.sets.size();
    const int set = w.sets[i];
    const Kind kind = w.kinds[i];
    const std::size_t k = w.slots[i];
    const bool traced = phase == kMain &&
                        traced_.load(std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    const int rc_start = PAPI_start(set);
    const std::int64_t t1 = now_ns();
    const long long ran1 = PAPIrepro_sim_run(w.sim, kStep);
    const std::int64_t t2 = now_ns();
    const int rc_read = read_op(kind, set, values, flags, false);
    const std::int64_t t3 = now_ns();
    const long long in_region = values[0];
    const long long ran2 = PAPIrepro_sim_run(w.sim, kStep);
    const std::int64_t t4 = now_ns();
    const int rc_stop = PAPI_stop(set, values);
    const std::int64_t t5 = now_ns();
    record(w, rc_start);
    record(w, rc_read);
    record_stop(w, rc_stop);
    w.traced_calls += (rc_start == PAPI_OK) + (rc_read == PAPI_OK) +
                      (rc_stop == PAPI_OK);
    bump(w.regions, 1);
    ++regions;
    const double bracket = static_cast<double>((t1 - t0) + (t5 - t4));
    if (phase == kMain && traced) {
      w.sim_ns += (t2 - t1) + (t4 - t3);
      w.loop_ns += t5 - t0;
      const std::uint64_t op = w.spans->next_op();
      const std::uint64_t parent = w.spans->record("region", 0, op, t0, t5);
      w.spans->record("capi.start", parent, op, t0, t1);
      w.spans->record("sim.step", parent, op, t1, t2);
      w.spans->record("capi.read", parent, op, t2, t3);
      w.spans->record("sim.step", parent, op, t3, t4);
      w.spans->record("capi.stop", parent, op, t4, t5);
      // The region's one read carries the cost of recording its spans.
      w.read_traced[k].add(static_cast<double>((t3 - t2) + (now_ns() - t5)));
    } else if (phase == kMain && measured) {
      w.bracket[k].add(bracket);
      w.read[k].add(static_cast<double>(t3 - t2));
    } else if (measured) {
      w.side_bracket[k].add(bracket);
    }
    if (kind != Kind::kMux && rc_start == PAPI_OK && rc_read == PAPI_OK &&
        rc_stop == PAPI_OK) {
      check_ins(in_region, ran1);
      check_ins(values[0], ran1 + ran2);
    }
    if (!w.reader && ++w.regions_done % kRegionsPerReconfig == 0) {
      reconfigure(w);
    }
    charged.tick(t5);
    if (!w.reader && w.regions_done % kRegionsPerReconfig == 0 &&
        trace_backlog() > kTraceBacklogMax) {
      // The wait is the tracing tool's, not a region's: it is left out of
      // the charged time, as it is out of every latency sample.
      charged.stop(now_ns());
      ++w.trace_waits;
      while (trace_backlog() > kTraceBacklogMax / 2 &&
             phase_.load(std::memory_order_relaxed) == phase) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      charged.start(now_ns());
    }
  }
  w.work[phase - 1] += regions;
  w.charged_ns[phase - 1] += charged.stop(now_ns());
}

void SimWorkload::reconfigure(Worker& w) {
  // Mostly the two hot events (allocation-cache hits); a seeded quarter of
  // reconfigurations draw from the whole pool.
  const std::uint64_t r = splitmix(w.rng);
  const std::size_t pick = (r & 3) == 0
                               ? (r >> 8) % reconfig_pool_.size()
                               : (w.regions_done / kRegionsPerReconfig) & 1;
  const int next = reconfig_pool_[pick];
  if (next == w.reconfig_code) return;
  record(w, PAPI_remove_event(w.sets[2], w.reconfig_code));
  record(w, PAPI_add_event(w.sets[2], next));
  w.reconfig_code = next;
}

void SimWorkload::poll_once(Phase phase, std::int64_t due_ns) {
  const std::int64_t wait_start = now_ns();
  const ThreadClock clock0 = thread_clock();
  wait_until(due_ns);
  const std::int64_t start = now_ns();
  const int n = PAPIrepro_snapshot_all(
      entries_c_.data(), static_cast<int>(entries_c_.size()), values_.data(),
      static_cast<int>(values_.size()));
  if (n < 0) {
    tally_.op(n);
    return;
  }
  entries_.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const PAPIrepro_snapshot_t& c = entries_c_[i];
    papi::SnapshotEntry& e = entries_[i];
    e.handle = c.event_set;
    e.first_value = static_cast<std::uint32_t>(c.first_value);
    e.num_values = static_cast<std::uint32_t>(c.num_values);
    e.status = static_cast<papirepro::Error>(c.status);
    e.flags = static_cast<std::uint32_t>(c.flags);
    e.pub_cycles = static_cast<std::uint64_t>(c.pub_cycles);
  }
  pipeline_.run(entries_, values_,
                static_cast<std::uint64_t>(PAPI_get_real_cyc()));
  const std::int64_t done = now_ns();
  tally_.op(PAPI_OK);
  // The poller spins from the previous poll's end to this one's, so its
  // off-CPU time in that interval is time the scheduler (or the
  // hypervisor) took it away.  A poll due while the poller was preempted,
  // and not blocked in the library, is timed but not counted: it times
  // the host, not the code.
  const ThreadClock clock1 = thread_clock();
  const std::int64_t off_cpu =
      (done - wait_start) - (clock1.cpu_ns - clock0.cpu_ns);
  if (off_cpu > kPreemptedNs &&
      clock1.voluntary_switches == clock0.voluntary_switches) {
    preempted_until_ = done;
  }
  if (due_ns < preempted_until_) {
    ++polls_preempted_;
  } else {
    poll_ns_.add(static_cast<double>(done - due_ns));
    poll_late_ns_.add(static_cast<double>(start - due_ns));
  }
  if (traced_.load(std::memory_order_relaxed)) {
    poll_spans_->record("poll", 0, poll_spans_->next_op(), start, done);
  }

  // Live-rank entries: a reading thread's running set, or every set of a
  // thread running regions.
  live_handles_.clear();
  for (const auto& w : workers_) {
    if (phase == kSide && w->index >= side_workers_) continue;
    if (phase == kMain && w->reader) {
      live_handles_.push_back(w->running_set.load(std::memory_order_relaxed));
    } else {
      live_handles_.insert(live_handles_.end(), w->sets.begin(),
                           w->sets.end());
    }
  }
  for (int h : live_handles_) {
    if (h > 0 && static_cast<std::size_t>(h) < live_.size()) live_[h] = 1;
  }
  for (const papi::SnapshotEntry& e : entries_) {
    const auto h = static_cast<std::size_t>(e.handle);
    if (h >= live_.size() || live_[h] == 0) continue;
    if (polls_ > 0) {
      ++live_entries_;
      if (e.pub_cycles != last_pub_[h]) ++fresh_entries_;
    }
    last_pub_[h] = e.pub_cycles;
  }
  for (int h : live_handles_) {
    if (h > 0 && static_cast<std::size_t>(h) < live_.size()) live_[h] = 0;
  }
  pipeline_.verify(entries_, values_, tally_,
                   polls_ % kPercentileCheckEvery == 0);
  ++polls_;
}

/// On a shared host the vCPUs differ in speed, by what the other tenants
/// run beside them, and a thread stays on the vCPU the scheduler first
/// gave it.  Left alone, one run's readers all land on fast vCPUs and the
/// next run's on a slow one.  So every slice moves the workers and this
/// thread one vCPU on, and over a run each thread spends about the same
/// time on every vCPU.  Skipped when the process may use fewer CPUs than
/// it has threads.
void SimWorkload::place_threads(int slice, Phase phase) {
  const std::size_t n = cpus_.size();
  const std::size_t workers = workers_.size();
  if (n < workers + 1) return;
  auto cpu = [&](std::size_t j) { return cpus_[(j + slice) % n]; };
  for (std::size_t j = 0; j < workers; ++j) {
    pin(workers_[j]->thread.native_handle(), cpu(j));
  }
  pin(pthread_self(), cpu(workers));
  // The trace drainer is busy about half the time.  It gets a vCPU no
  // timed thread uses: the main thread's while that only sleeps (the
  // regions main phase), else that of the worker the side phase leaves
  // idle.
  if (drainer_.joinable()) {
    pin(drainer_.native_handle(),
        phase == kMain ? cpu(workers)
                       : cpu(static_cast<std::size_t>(side_workers_)));
  }
}

void SimWorkload::drainer_main() {
  uncount_thread_allocations();
  while (draining_.load()) {
    // Periods run from the start of one dump to the next, so a long dump
    // does not also put off the next one.
    const auto next = std::chrono::steady_clock::now() +
                      std::chrono::nanoseconds(kDrainPeriodNs);
    dumped_records_.fetch_add(drain_trace(), std::memory_order_relaxed);
    std::this_thread::sleep_until(next);
  }
}

/// Empties the library's trace rings into a CSV file; returns the number
/// of records the file holds.
long long SimWorkload::drain_trace() {
  const std::string path = config_.out_dir + "/regions-trace.csv";
  tally_.op(PAPIrepro_dump_trace(path.c_str(), PAPIREPRO_TRACE_CSV));
  long long lines = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      lines += std::count(buf, buf + n, '\n');
    }
    std::fclose(f);
  }
  return std::max(0LL, lines - 1);  // less the header line
}

void SimWorkload::drive(Phase phase, double seconds, bool poll) {
  const std::int64_t begin = now_ns();
  const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
  auto calls = [&] {
    return total(&Worker::reads) + 3 * total(&Worker::regions) +
           2 * total(&Worker::rotations) + polls_;
  };
  const std::uint64_t allocs0 = allocations();
  const std::uint64_t calls0 = calls();
  set_phase(phase);
  std::int64_t due = begin;
  while (true) {
    const std::int64_t now = now_ns();
    if (now >= end) break;
    if (config_.trace && phase == kMain) {
      traced_.store(((now - begin) / kTraceChunkNs) % 2 == 1,
                    std::memory_order_relaxed);
    }
    if (poll) {
      poll_once(phase, due);
      due += kPollPeriodNs;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  traced_.store(false);
  if (phase == kMain) {
    main_allocs_ += allocations() - allocs0;
    main_calls_ += calls() - calls0;
  }
}

void SimWorkload::teardown() {
  set_phase(kDone);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  PAPIrepro_sim_destroy(primary_);  // shuts the library down first
  primary_ = nullptr;
  for (auto& w : workers_) PAPIrepro_sim_destroy(w->sim);
}

/// Every set-up and teardown leaves the library a telemetry slab for each
/// thread it has seen, about 8 KB per set-up, and in regions a trace ring
/// per thread besides.  Where in the heap that lands depends on the seed,
/// and 30 of them moved this process's peak resident set by up to 2 MB
/// from seed to seed.  So all set-ups but the last run in a child
/// process, and the process that runs the workload sets up once, as a
/// program does.
std::vector<double> SimWorkload::setups_in_child(int reps) {
  std::vector<double> times(static_cast<std::size_t>(reps), 0.0);
  // The child sends the operations it attempted and failed, then its
  // set-up times.
  std::uint64_t ops[2] = {0, 0};
  const std::size_t bytes = sizeof ops + sizeof(double) * times.size();
  int fds[2];
  if (!tally_.check(pipe(fds) == 0, "setup: pipe to the set-up child")) {
    return {};
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    // Ends with the benchmark if that is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    const std::uint64_t attempted0 = tally_.attempted();
    const std::uint64_t failed0 = tally_.failed();
    for (double& t : times) {
      t = setup();
      teardown();
      std::this_thread::sleep_for(std::chrono::milliseconds(kSetupPauseMs));
    }
    ops[0] = tally_.attempted() - attempted0;
    ops[1] = tally_.failed() - failed0;
    std::vector<char> message(bytes);
    std::memcpy(message.data(), ops, sizeof ops);
    std::memcpy(message.data() + sizeof ops, times.data(),
                sizeof(double) * times.size());
    std::size_t sent = 0;
    while (sent < bytes) {
      const ssize_t n = write(fds[1], message.data() + sent, bytes - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      sent += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  if (!tally_.check(pid > 0, "setup: start the set-up child")) {
    close(fds[0]);
    return {};
  }
  std::vector<char> message(bytes);
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = read(fds[0], message.data() + got, bytes - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!tally_.check(clean && got == bytes,
                    "setup: the set-up child reported and exited cleanly")) {
    return {};
  }
  std::memcpy(ops, message.data(), sizeof ops);
  std::memcpy(times.data(), message.data() + sizeof ops,
              sizeof(double) * times.size());
  tally_.ops(ops[0], ops[1]);
  return times;
}

void SimWorkload::run(Report& report, SpanSet& spans, TracedRead& traced) {
  std::vector<double> setup_s = setups_in_child(kSetupReps - 1);
  setup_s.push_back(setup());

  PAPIrepro_telemetry_t tel0{}, tel1{};
  tally_.op(PAPIrepro_get_telemetry(&tel0));
  if (regions_) {
    draining_.store(true);
    drainer_ = std::thread([this] { drainer_main(); });
  }
  const PhasePlan plan = phase_plan(config_);
  for (int i = 0; i < plan.slices; ++i) {
    place_threads(i, kMain);
    drive(kMain, plan.main_s, /*poll=*/monitoring_);
    place_threads(i, kSide);
    drive(kSide, plan.side_s, /*poll=*/!monitoring_);
  }
  tally_.op(PAPIrepro_get_telemetry(&tel1));
  set_phase(kDone);
  for (auto& w : workers_) w->thread.join();
  if (regions_) {
    draining_.store(false);
    drainer_.join();
    dumped_records_.fetch_add(drain_trace(), std::memory_order_relaxed);
    std::remove((config_.out_dir + "/regions-trace.csv").c_str());
  }

  PAPIrepro_telemetry_t tel2{};
  tally_.op(PAPIrepro_get_telemetry(&tel2));
  std::uint64_t stops = 0;
  for (const auto& w : workers_) stops += w->stops;
  // Every stop is one the benchmark asked for: polling, encoding and
  // reducing never stop a counting set.
  tally_.check(tel2.stops - tel0.stops == static_cast<long long>(stops),
               "no set stopped except by its own thread",
               static_cast<double>(tel2.stops - tel0.stops),
               static_cast<double>(stops));
  std::uint64_t traced_calls = 0;
  std::int64_t sim_ns = 0, loop_ns = 0;
  for (const auto& w : workers_) {
    traced_calls += w->traced_calls;
    sim_ns += w->sim_ns;
    loop_ns += w->loop_ns;
  }

  if (regions_) {
    // Every start, read and stop leaves one trace record unless its ring
    // was full, which the library counts as a drop.
    const long long drops = tel2.trace_drops - tel0.trace_drops;
    const long long records = (tel2.trace_records - tel0.trace_records) + drops;
    tally_.check(records == static_cast<long long>(traced_calls),
                 "regions: trace records + drops equal the calls made",
                 static_cast<double>(records),
                 static_cast<double>(traced_calls));
    tally_.check(dumped_records_.load() == tel2.trace_records,
                 "regions: the dumps hold every accepted record",
                 static_cast<double>(dumped_records_.load()),
                 static_cast<double>(tel2.trace_records));
    // The drainer keeps up: at most one call in a hundred finds its ring
    // full.  Undrained, the rings are full after a few milliseconds and
    // drop nearly every record.
    tally_.check(drops * 100 <= records,
                 "regions: trace drops stay under 1 % of the calls",
                 static_cast<double>(drops), static_cast<double>(records));
  }

  BySlot Worker::*brackets =
      regions_ ? &Worker::bracket : &Worker::side_bracket;
  // Work per second of charged time, summed over threads: wall time,
  // less only the time the scheduler or the hypervisor took the thread
  // away.  Time a thread was blocked in the library counts against it.
  auto rate = [&](Phase phase) {
    double sum = 0;
    for (const auto& w : workers_) {
      sum += ratio(static_cast<double>(w->work[phase - 1]) * 1e9,
                   static_cast<double>(w->charged_ns[phase - 1]));
    }
    return sum;
  };
  if (!config_.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("read_ns_p50", slot_mean(workers_, &Worker::read, false), "ns");
    report.set("read_ns_p99", slot_mean(workers_, &Worker::read, true), "ns");
    report.set("reads_per_s", rate(kMain), "1/s");
    report.set("start_stop_ns_p50", slot_mean(workers_, brackets, false),
               "ns");
    report.set("start_stop_ns_p99", slot_mean(workers_, brackets, true), "ns");
    report.set("regions_per_s", rate(regions_ ? kMain : kSide), "1/s");
    report.set("poll_ns_p50", p50(poll_ns_), "ns");
    report.set("poll_fresh_ratio",
               ratio(static_cast<double>(fresh_entries_),
                     static_cast<double>(live_entries_)),
               "ratio");
  } else {
    report.set("allocs_per_op",
               ratio(static_cast<double>(main_allocs_),
                     static_cast<double>(main_calls_)),
               "count");
    PAPIrepro_alloc_cache_stats_t cache{};
    tally_.op(PAPIrepro_alloc_cache_stats(&cache));
    report.set("core.alloc_cache.hit_ratio",
               ratio(static_cast<double>(cache.hits),
                     static_cast<double>(cache.hits + cache.misses)),
               "ratio");
    report.set("core.telemetry.mux_rotations",
               static_cast<double>(tel1.mux_rotations - tel0.mux_rotations),
               "count");
    report.set("core.telemetry.retries",
               static_cast<double>(tel1.retry_attempts - tel0.retry_attempts),
               "count");
    report.set("core.telemetry.trace_drops",
               static_cast<double>(tel1.trace_drops - tel0.trace_drops),
               "count");
    report.set("sim.machine.run_share",
               ratio(static_cast<double>(sim_ns), static_cast<double>(loop_ns)),
               "ratio");
    report.set("poll_ns_p99", p99(poll_ns_), "ns");
    report.set("monitoring.poller.late_ns_p99", p99(poll_late_ns_), "ns");
    report.set("monitoring.poller.preempted_share",
               ratio(static_cast<double>(polls_preempted_),
                     static_cast<double>(polls_)),
               "ratio");
    traced.traced_p50_ns = slot_mean(workers_, &Worker::read_traced, false);
    traced.untraced_p50_ns = slot_mean(workers_, &Worker::read, false);
    if (counting_) {
      const std::vector<const Windowed*> direct = slot_parts(
          workers_, &Worker::read, reader_slot(Kind::kDirect, false));
      traced.direct_p50_ns = pooled(direct, false);
      traced.direct_iqr_ns = pooled_iqr(direct);
    }
  }
  std::uint64_t trace_waits = 0;
  for (const auto& w : workers_) trace_waits += w->trace_waits;
  std::printf("%s: %llu reads, %llu regions, %llu kind switches, %llu polls "
              "(%llu not counted: the poller was preempted), %llu waits "
              "for the trace drainer\n",
              config_.workload.c_str(),
              static_cast<unsigned long long>(total(&Worker::reads)),
              static_cast<unsigned long long>(total(&Worker::regions)),
              static_cast<unsigned long long>(total(&Worker::rotations)),
              static_cast<unsigned long long>(polls_),
              static_cast<unsigned long long>(polls_preempted_),
              static_cast<unsigned long long>(trace_waits));
  for (std::size_t k = 0; k < kNumSlots; ++k) {
    const auto parts = slot_parts(workers_, &Worker::read, k);
    const auto bparts = slot_parts(workers_, brackets, k);
    if (pooled(parts, false) <= 0 && pooled(bparts, false) <= 0) continue;
    std::printf("  %-15s read p50 %9.2f  p99 %9.2f   start+stop p50 %9.2f  "
                "p99 %9.2f ns\n",
                kSlotNames[k], pooled(parts, false), pooled(parts, true),
                pooled(bparts, false), pooled(bparts, true));
  }
  for (auto& w : workers_) spans.push_back(std::move(w->spans));
  spans.push_back(std::move(poll_spans_));
}

}  // namespace

void run_sim_workload(const Config& config, Report& report, Tally& tally,
                      SpanSet& spans, TracedRead& traced) {
  SimWorkload workload(config, tally);
  workload.run(report, spans, traced);
  workload.teardown();
}

}  // namespace perfbench
