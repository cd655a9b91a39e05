// dqemu_perfbench: the repository's benchmark.
//
//   dqemu_perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//
// Runs one named workload (or all four in turn) repeatedly for about S
// seconds of host time, checks every guest-visible result against values
// computed here, checks that every repeat reproduces the first one's
// virtual-time results exactly, and prints one JSON object as the last line
// of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones (run times are the best of the timed
// repeats on one host thread and their lower quartile on several, set-up
// time their median); with --trace 1 the per-layer ones, from repeats that
// attach the flight recorder plus timed probes of single layers. README.md
// in this directory lists every workload and metric.
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "layers.hpp"
#include "programs.hpp"
#include "trace/tracer.hpp"
#include "workloads/serve.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dqemu::ClusterConfig;
using dqemu::StatsRegistry;

constexpr const char* kUsage =
    "usage: dqemu_perfbench --workload NAME|all [--seed N] [--seconds S] "
    "[--trace 0|1]\n"
    "  --workload  dbt_compute | dsm_migrate | memwalk_ht4 | serve_4n | all\n"
    "  --seed      input seed, a non-negative integer (default 1)\n"
    "  --seconds   host seconds of timed repeats, 1..600 (default 10)\n"
    "  --trace     0: end-to-end metrics; 1: per-layer metrics (default 0)\n";

// ---- workloads ------------------------------------------------------------

constexpr ComputeSize kCompute{};
constexpr MigrateSize kMigrate{};
constexpr WalkSize kWalk{};
/// Requests of a timed serve_4n repeat: short repeats, so that a run holds
/// many of them (README.md, "Host noise").
constexpr std::uint32_t kServeTimedRequests = 12500;
/// Requests of the serving run the serve_* metrics come from: enough for 50
/// samples beyond the 99.9th percentile.
constexpr std::uint32_t kServeTailRequests = 50000;
constexpr double kServeRate = 4000.0;
constexpr std::uint32_t kServeWorkers = 16;
/// Timed repeats a run makes at least, whatever --seconds says.
constexpr int kMinRepeats = 3;

constexpr std::size_t kWorkloads = 4;
/// Timed repeats one run of a workload keeps at most.
constexpr std::size_t kMaxSamples = 16384;

/// Host times of one timed repeat.
struct Sample {
  double run_s = 0, cpu_s = 0, setup_s = 0;
};

/// A workload's timed repeats so far, kept across restarts (run_isolated):
/// an attempt that replaces a crashed one keeps its repeats and deadline.
struct TimedRun {
  Clock::rep deadline = 0;  ///< steady clock ticks; 0 = not started
  std::size_t count = 0;
  Sample samples[kMaxSamples];
};

/// Memory the child running the benchmark shares with its supervising
/// parent (run_isolated). The atomics are updated around every repeat and
/// read while the child runs; `runs` only by the child, and by the next
/// attempt's child once this one has ended.
struct Progress {
  std::atomic<std::uint64_t> repeats{0};    ///< repeats finished
  std::atomic<std::uint64_t> attempted{0};  ///< Tally totals so far
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint32_t> host_threads{0};  ///< of the run in flight
  TimedRun runs[kWorkloads];
};
Progress* g_progress = nullptr;  ///< set by run_isolated before any fork

/// Operations of earlier attempts that crashed or hung in the parallel
/// kernel; the attempt that completes adds them to its result.
struct Carried {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
Carried g_carried;

struct Workload {
  std::string_view name;
  std::uint32_t slaves = 0;  ///< 0 = single-node baseline
  std::uint32_t host_threads = 1;
  std::uint32_t requests = 0;  ///< serving requests; 0 = batch workload
  std::string sizes;

  [[nodiscard]] bool serve() const { return requests > 0; }
};

std::string serve_sizes(std::uint32_t requests) {
  return "workers=" + std::to_string(kServeWorkers) +
         " requests=" + std::to_string(requests) +
         " rate=" + std::to_string(static_cast<int>(kServeRate)) +
         " arrival=poisson";
}

const std::array<Workload, kWorkloads>& workloads() {
  static const std::array<Workload, kWorkloads> table = {{
      {"dbt_compute", 0, 1, 0,
       "threads=" + std::to_string(kCompute.threads) +
           " words=" + std::to_string(kCompute.words) +
           " reps=" + std::to_string(kCompute.reps)},
      {"dsm_migrate", 4, 1, 0,
       "workers=" + std::to_string(kMigrate.workers) +
           " pages=" + std::to_string(kMigrate.pages) +
           " passes=" + std::to_string(kMigrate.passes)},
      {"memwalk_ht4", 4, 4, 0,
       "workers=" + std::to_string(kWalk.workers) +
           " bytes=" + std::to_string(kWalk.bytes) +
           " reps=" + std::to_string(kWalk.reps)},
      {"serve_4n", 4, 1, kServeTimedRequests,
       serve_sizes(kServeTimedRequests)},
  }};
  return table;
}

/// The serving run every workload takes its serve_* metrics from: serve_4n
/// at kServeTailRequests.
const Workload& serve_tail_workload() {
  static const Workload tail = {"serve_4n", 4, 1, kServeTailRequests,
                                serve_sizes(kServeTailRequests)};
  return tail;
}

ClusterConfig config_for(const Workload& w, std::uint64_t seed,
                         std::uint32_t host_threads) {
  ClusterConfig c;
  c.single_node_baseline = w.slaves == 0;
  c.slave_nodes = w.slaves;
  c.sim.host_threads = host_threads;
  if (w.serve()) {
    c.serve.enabled = true;
    c.serve.seed = seed;
    c.serve.rate = kServeRate;
    c.serve.requests = w.requests;
    c.serve.workers = kServeWorkers;
  }
  return c;
}

dqemu::Result<dqemu::isa::Program> generate(const Workload& w,
                                            std::uint64_t seed) {
  if (w.name == "dbt_compute") return dbt_compute(kCompute, seed);
  if (w.name == "dsm_migrate") return dsm_migrate(kMigrate, seed);
  if (w.name == "memwalk_ht4") return memwalk(kWalk, seed);
  dqemu::workloads::ServePoolParams pool;
  pool.workers = kServeWorkers;
  return dqemu::workloads::serve_pool(pool);
}

/// What a correct run prints and returns, computed without the simulator.
struct Expected {
  std::string stdout_text;
  std::uint32_t exit_code = 0;
};

Expected expected_for(const Workload& w, std::uint64_t seed) {
  if (w.name == "dbt_compute") return {dbt_compute_expected(kCompute, seed)};
  if (w.name == "dsm_migrate") return {dsm_migrate_expected(kMigrate, seed)};
  if (w.name == "memwalk_ht4") return {memwalk_expected(kWalk, seed)};
  // The pool prints the executions it completed: requests x clones (1).
  return {std::to_string(w.requests) + "\n"};
}

// ---- one repeat -----------------------------------------------------------

struct Repeat {
  double generate_s = 0, cluster_s = 0, load_s = 0, run_s = 0, cpu_s = 0;
  std::string error;  ///< non-empty: generation, load or run failed
  dqemu::core::Cluster::RunResult result;
  StatsRegistry stats;
  std::uint64_t events = 0;
  std::uint64_t issued = 0, retired = 0;
  std::vector<dqemu::DurationPs> latencies;

  [[nodiscard]] double setup_s() const {
    return generate_s + cluster_s + load_s;
  }
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

Repeat run_once(const Workload& w, std::uint64_t seed,
                std::uint32_t host_threads, dqemu::trace::Tracer* tracer) {
  Repeat r;
  const auto t0 = Clock::now();
  auto program = generate(w, seed);
  const auto t1 = Clock::now();
  r.generate_s = seconds_between(t0, t1);
  if (!program.is_ok()) {
    r.error = "generate: " + program.status().to_string();
    return r;
  }
  auto cluster = std::make_unique<dqemu::core::Cluster>(
      config_for(w, seed, host_threads), tracer);
  const auto t2 = Clock::now();
  const dqemu::Status loaded = cluster->load(program.value());
  const auto t3 = Clock::now();
  r.cluster_s = seconds_between(t1, t2);
  r.load_s = seconds_between(t2, t3);
  if (!loaded.is_ok()) {
    r.error = "load: " + loaded.to_string();
    return r;
  }
  g_progress->host_threads = host_threads;
  const double cpu0 = process_cpu_s();
  const auto t4 = Clock::now();
  auto run = cluster->run();
  r.run_s = seconds_between(t4, Clock::now());
  r.cpu_s = process_cpu_s() - cpu0;
  g_progress->host_threads = 0;
  if (!run.is_ok()) {
    r.error = "run: " + run.status().to_string();
    return r;
  }
  r.result = run.take();
  r.stats = cluster->stats();
  r.events = cluster->queue().fired();
  if (dqemu::serve::LoadGenerator* gen = cluster->serving(); gen != nullptr) {
    r.issued = gen->issued();
    r.retired = gen->retired();
    r.latencies = gen->latencies();
  }
  return r;
}

// ---- checks ---------------------------------------------------------------

/// Names of the failed output checks of one repeat (empty = correct).
std::vector<std::string> check_outputs(const Workload& w, const Repeat& r,
                                       const Expected& e) {
  if (!r.error.empty()) return {r.error};
  std::vector<std::string> failed;
  if (r.result.exit_code != e.exit_code) failed.push_back("exit_code");
  if (r.result.guest_stdout != e.stdout_text) failed.push_back("checksum");
  if (w.serve()) {
    if (r.issued != w.requests || r.retired != r.issued) {
      failed.push_back("serve.retired==issued");
    }
    if (r.stats.get("serve.checksum_errors") != 0) {
      failed.push_back("serve.checksum_errors==0");
    }
    if (r.result.guest_stdout !=
        std::to_string(r.stats.get("serve.executions")) + "\n") {
      failed.push_back("serve.stdout==executions");
    }
  }
  return failed;
}

/// First virtual-time result in which `b` differs from `a`, or empty.
std::string vt_difference(const Repeat& a, const Repeat& b) {
  const auto& x = a.result;
  const auto& y = b.result;
  if (x.exit_code != y.exit_code) return "exit_code";
  if (x.sim_time != y.sim_time) return "sim_time";
  if (x.guest_insns != y.guest_insns) return "guest_insns";
  if (x.guest_stdout != y.guest_stdout) return "guest_stdout";
  if (x.total.execute != y.total.execute ||
      x.total.translate != y.total.translate ||
      x.total.pagefault != y.total.pagefault ||
      x.total.syscall != y.total.syscall || x.total.idle != y.total.idle) {
    return "time_breakdown";
  }
  if (a.stats.counters() != b.stats.counters()) {
    for (const auto& [name, value] : a.stats.counters()) {
      if (b.stats.get(name) != value || !b.stats.has(name)) {
        return "counter " + name;
      }
    }
    return "counters";
  }
  if (a.stats.histograms() != b.stats.histograms()) return "histograms";
  if (a.latencies != b.latencies) return "serve latencies";
  return {};
}

/// Operation accounting: a batch repeat is one operation, a serving repeat
/// one per request; every operation of a repeat with a failed check failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< "workload: check" lines

  void add(const Workload& w, const std::vector<std::string>& failed_checks) {
    for (const std::string& c : failed_checks) {
      failures.push_back(std::string(w.name) + ": " + c);
    }
    const std::uint64_t ops = w.serve() ? w.requests : 1;
    attempted += ops;
    if (!failed_checks.empty()) failed += ops;
    g_progress->attempted += ops;
    if (!failed_checks.empty()) g_progress->failed += ops;
    ++g_progress->repeats;
  }
};

/// Proves the checker can fail: the first repeat's outputs must be rejected
/// against a corrupted expected checksum.
std::vector<std::string> self_test(const Workload& w, const Repeat& r,
                                   const Expected& e) {
  Expected corrupted = e;
  corrupted.stdout_text[0] = corrupted.stdout_text[0] == '1' ? '2' : '1';
  if (check_outputs(w, r, corrupted).empty()) {
    return {"self-test: checker accepted a corrupted expected checksum"};
  }
  return {};
}

// ---- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

/// `field` of every repeat in `reps`.
std::vector<double> each(const std::vector<Repeat>& reps,
                         double (*field)(const Repeat&)) {
  std::vector<double> v;
  for (const Repeat& r : reps) v.push_back(field(r));
  return v;
}

double best_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Median, for set-up times.
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lower quartile (nearest rank).
double lower_quartile_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() + 3) / 4 - 1];
}

/// The run time a run reports for repeats made at `host_threads`. On a
/// host whose cores other tenants share, noise only ever adds time to a
/// single host thread, so its best repeat is the steadiest figure (the
/// median moved 3-15x more from run to run). A run on several host threads
/// has rare repeats up to 30% faster than any stretch of the run, and
/// contended stretches that can cover half of it; it reports the lower
/// quartile, which moved least (README.md, "Host noise").
double run_time_of(std::uint32_t host_threads, const std::vector<double>& v) {
  return host_threads == 1 ? best_of(v) : lower_quartile_of(v);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double sim_seconds(const Repeat& r) {
  return static_cast<double>(r.result.sim_time) / 1e12;
}

/// Virtual-time serving metrics of a serving repeat (exact quantiles of
/// every request's arrival-to-completion latency).
void serve_metrics(const Repeat& r, std::vector<Metric>& out) {
  std::vector<std::uint64_t> lat(r.latencies.begin(), r.latencies.end());
  out.push_back({"serve_p50_ms", quantile(lat, 0.50) / 1e9, "ms"});
  out.push_back({"serve_p99_ms", quantile(lat, 0.99) / 1e9, "ms"});
  out.push_back({"serve_p999_ms", quantile(lat, 0.999) / 1e9, "ms"});
  out.push_back({"serve_goodput_rps",
                 static_cast<double>(r.retired) / sim_seconds(r), "1/s"});
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer metrics. `traced` are repeats with the flight recorder
/// attached (`records` is the last one's recording), `plain` untraced
/// repeats of the same run (both at `host_threads`), `ht1` (memwalk_ht4
/// only) untraced single-host-thread companions.
std::vector<Metric> layer_metrics(
    std::uint32_t host_threads, const std::vector<Repeat>& traced,
    const std::vector<Repeat>& plain,
    const std::vector<Repeat>& ht1, std::uint64_t trace_records,
    std::uint64_t trace_dropped,
    const std::vector<dqemu::trace::Record>& records,
    const dqemu::isa::Program& probe_program) {
  const Repeat& t = traced.front();
  const StatsRegistry& s = t.stats;
  const auto get = [&s](const char* name) {
    return static_cast<double>(s.get(name));
  };
  std::vector<Metric> m;
  const auto count = [&](const char* name) {
    m.push_back({name, get(name), "count"});
  };

  // core
  const auto traced_median = [&traced](double (*field)(const Repeat&)) {
    return median_of(each(traced, field));
  };
  m.push_back({"core.generate_s",
               traced_median([](const Repeat& r) { return r.generate_s; }),
               "s"});
  m.push_back({"core.cluster_s",
               traced_median([](const Repeat& r) { return r.cluster_s; }),
               "s"});
  m.push_back({"core.load_s",
               traced_median([](const Repeat& r) { return r.load_s; }), "s"});
  count("core.slices");
  const double vt_total = static_cast<double>(t.result.total.total());
  const auto share = [vt_total](dqemu::DurationPs part) {
    return vt_total > 0 ? static_cast<double>(part) / vt_total : 0.0;
  };
  m.push_back({"core.vt_execute_share", share(t.result.total.execute), "frac"});
  m.push_back(
      {"core.vt_pagefault_share", share(t.result.total.pagefault), "frac"});
  m.push_back({"core.vt_syscall_share", share(t.result.total.syscall), "frac"});

  // sim: event counts come from the single-queue kernel (the ht1 companion
  // for memwalk_ht4), whose queue() fires every event.
  const std::vector<Repeat>& serial = ht1.empty() ? plain : ht1;
  const double serial_run_s =
      best_of(each(serial, [](const Repeat& r) { return r.run_s; }));
  const double events = static_cast<double>(serial.front().events);
  const double plain_run_s = run_time_of(
      host_threads, each(plain, [](const Repeat& r) { return r.run_s; }));
  const double plain_cpu_s = run_time_of(
      host_threads, each(plain, [](const Repeat& r) { return r.cpu_s; }));
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.host_ns_per_event",
               events > 0 ? serial_run_s * 1e9 / events : 0.0, "ns"});
  m.push_back({"sim.probe_event_ns", probe_event_ns(), "ns"});
  m.push_back({"sim.probe_pool_batch_ns", probe_pool_batch_ns(), "ns"});
  m.push_back({"sim.cpu_per_wall", plain_cpu_s / plain_run_s, "ratio"});
  m.push_back({"sim.ht4_speedup",
               ht1.empty() ? 0.0 : serial_run_s / plain_run_s, "ratio"});

  // dbt
  m.push_back({"dbt.guest_mips",
               static_cast<double>(t.result.guest_insns) / plain_run_s / 1e6,
               "MIPS"});
  count("dbt.insns");
  count("dbt.insns_translated");
  count("dbt.fused_ops");
  m.push_back({"dbt.tcache_miss_ratio",
               ratio(s.get("dbt.tcache_miss"),
                     s.get("dbt.tcache_hit") + s.get("dbt.tcache_miss")),
               "ratio"});
  m.push_back({"dbt.tlb_hit_ratio",
               ratio(s.get("dbt.tlb_hit"),
                     s.get("dbt.tlb_hit") + s.get("dbt.tlb_miss")),
               "ratio"});
  m.push_back({"dbt.sb_side_exit_ratio",
               ratio(s.get("dbt.sb_side_exit"), s.get("dbt.sb_exec")),
               "ratio"});
  m.push_back(
      {"dbt.probe_ns_per_insn", probe_dbt_ns_per_insn(probe_program), "ns"});

  // dsm (fault latencies from the recorder's dsm.fault flows)
  std::vector<std::uint64_t> faults = flow_durations(records, "dsm.fault");
  std::vector<std::uint64_t> syscalls = flow_durations(records, "sys.delegate");
  m.push_back({"dsm.page_faults", get("core.page_faults"), "count"});
  count("dsm.read_requests");
  count("dsm.write_requests");
  count("dsm.coalesced_faults");
  m.push_back({"dsm.bytes_on_wire", get("dsm.bytes_on_wire"), "bytes"});
  count("dir.owner_recalls");
  count("dir.sharer_invalidations");
  count("dir.queued_reqs");
  m.push_back({"dsm.host_us_per_fault",
               s.get("core.page_faults") == 0
                   ? 0.0
                   : plain_run_s * 1e6 / get("core.page_faults"),
               "us"});
  m.push_back({"dsm.vt_fault_p50_us", quantile(faults, 0.50) / 1e6, "us"});
  m.push_back({"dsm.vt_fault_p99_us", quantile(faults, 0.99) / 1e6, "us"});

  // net
  count("net.messages");
  m.push_back({"net.bytes", get("net.bytes"), "bytes"});
  count("net.loopback");
  m.push_back({"net.probe_msg_ns", probe_msg_ns(), "ns"});

  // sys
  count("sys.delegated");
  count("sys.futex_waits");
  count("sys.futex_wakes");
  m.push_back({"llsc.sc_fail_ratio",
               ratio(s.get("llsc.sc_fail"), s.get("llsc.ll")), "ratio"});
  m.push_back({"sys.vt_syscall_p99_us", quantile(syscalls, 0.99) / 1e6, "us"});

  // serve
  const dqemu::LogHistogram* queue_ns = s.find_histogram("serve.queue_ns");
  m.push_back({"serve.vt_queue_p99_ms",
               queue_ns == nullptr
                   ? 0.0
                   : static_cast<double>(queue_ns->quantile(0.99)) / 1e6,
               "ms"});
  count("serve.parks");
  count("serve.executions");

  // trace
  m.push_back({"trace.records", static_cast<double>(trace_records), "count"});
  m.push_back({"trace.dropped", static_cast<double>(trace_dropped), "count"});
  const double traced_run_s = run_time_of(
      host_threads, each(traced, [](const Repeat& r) { return r.run_s; }));
  m.push_back({"trace.overhead_frac", traced_run_s / plain_run_s - 1.0,
               "frac"});
  return m;
}

// ---- command line --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage_error(const char* what, const char* arg) {
  std::fprintf(stderr, "dqemu_perfbench: %s%s%s\n%s", what,
               arg != nullptr ? ": " : "", arg != nullptr ? arg : "", kUsage);
  std::exit(2);
}

bool parse_u64(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      usage_error("unknown argument", argv[i]);
    }
    if (i + 1 >= argc) usage_error("missing value for", argv[i]);
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (!parse_u64(value, &n)) {
      usage_error("not a non-negative integer", value);
    } else if (flag == "--seed") {
      args.seed = n;
    } else if (flag == "--seconds") {
      if (n < 1 || n > 600) usage_error("--seconds must be 1..600", value);
      args.seconds = static_cast<std::uint32_t>(n);
    } else {
      if (n > 1) usage_error("--trace must be 0 or 1", value);
      args.trace = n == 1;
    }
  }
  if (args.workload.empty()) usage_error("--workload is required", nullptr);
  if (args.workload == "all") return args;
  for (const Workload& w : workloads()) {
    if (w.name == args.workload) return args;
  }
  usage_error("unknown workload", args.workload.c_str());
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_stamp(const Workload& w, const Args& args) {
  const char* commit = std::getenv("PERFBENCH_SOURCE");
  std::printf(
      "{\"stamp\": {\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"source\": \"%s\", \"workload\": \"%s\", \"slaves\": %u, "
      "\"host_threads\": %u, \"sizes\": \"%s\", \"serving_run\": \"%s\", "
      "\"seed\": %" PRIu64 ", \"seconds\": %u, \"trace\": %d}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_BUILD_TYPE,
      json_escape(commit != nullptr ? commit : "unknown").c_str(),
      std::string(w.name).c_str(), w.slaves, w.host_threads,
      w.sizes.c_str(), serve_tail_workload().sizes.c_str(), args.seed,
      args.seconds, args.trace ? 1 : 0);
}

struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<double> run_samples;  ///< run_s of every timed repeat
};

/// Runs and checks one repeat, comparing its virtual-time results with
/// `reference` (the run's first repeat) when given.
Repeat checked_repeat(const Workload& w, std::uint64_t seed,
                      std::uint32_t host_threads, dqemu::trace::Tracer* tracer,
                      const Expected& expected, const Repeat* reference,
                      const char* label, Tally& tally) {
  Repeat r = run_once(w, seed, host_threads, tracer);
  std::vector<std::string> failed = check_outputs(w, r, expected);
  if (reference == nullptr && failed.empty()) {
    const std::vector<std::string> st = self_test(w, r, expected);
    failed.insert(failed.end(), st.begin(), st.end());
  }
  if (reference != nullptr && failed.empty()) {
    const std::string diff = vt_difference(*reference, r);
    if (!diff.empty()) {
      failed.push_back(std::string("determinism (") + label + "): " + diff +
                       " differs from the first repeat");
    }
  }
  tally.add(w, failed);
  return r;
}

Outcome run_workload(const Workload& w, const Args& args) {
  Outcome out;
  Tally& tally = out.tally;
  const Expected expected = expected_for(w, args.seed);
  TimedRun& run = g_progress->runs[&w - workloads().data()];
  if (run.deadline == 0) {
    run.deadline = (Clock::now() + std::chrono::seconds(args.seconds))
                       .time_since_epoch()
                       .count();
  }
  const Clock::time_point deadline{Clock::duration(run.deadline)};

  // Warm-up repeat: checked and used as the determinism reference, but not
  // timed (it pays the process's first-touch costs).
  const Repeat first = checked_repeat(w, args.seed, w.host_threads, nullptr,
                                      expected, nullptr, "warm-up", tally);
  if (!first.error.empty() || !tally.failures.empty()) return out;

  if (!args.trace) {
    while (run.count < kMaxSamples &&
           (run.count < kMinRepeats || Clock::now() < deadline)) {
      const Repeat r = checked_repeat(w, args.seed, w.host_threads, nullptr,
                                      expected, &first, "repeat", tally);
      run.samples[run.count++] = {r.run_s, r.cpu_s, r.setup_s()};
    }
    const double rss = peak_rss_mb();
    std::vector<double> run_s, cpu_s, setup_s;
    for (std::size_t i = 0; i < run.count; ++i) {
      run_s.push_back(run.samples[i].run_s);
      cpu_s.push_back(run.samples[i].cpu_s);
      setup_s.push_back(run.samples[i].setup_s);
    }
    out.run_samples = run_s;
    if (w.host_threads > 1) {
      // The parallel kernel must reproduce the serial one exactly.
      checked_repeat(w, args.seed, 1, nullptr, expected, &first,
                     "host_threads=1 companion", tally);
    }
    auto& m = out.metrics;
    m.push_back({"run_s", run_time_of(w.host_threads, run_s), "s"});
    m.push_back({"cpu_s", run_time_of(w.host_threads, cpu_s), "s"});
    m.push_back({"setup_s", median_of(setup_s), "s"});
    m.push_back({"peak_rss_mb", rss, "MB"});
    m.push_back({"sim_s", sim_seconds(first), "s"});
    // Serving is the cluster's tail-latency merit function; every workload
    // reports it from one untimed, checked serve_4n run of
    // kServeTailRequests requests at the same seed.
    const Workload& sw = serve_tail_workload();
    const Repeat serving = checked_repeat(
        sw, args.seed, sw.host_threads, nullptr, expected_for(sw, args.seed),
        nullptr, "serving", tally);
    if (serving.error.empty()) serve_metrics(serving, m);
    return out;
  }

  // Traced pass: alternate untraced and traced repeats (plus the serial
  // companion for a parallel workload) so host noise hits both alike. Each
  // traced repeat gets a fresh recorder; the last one is analysed.
  dqemu::trace::TraceConfig trace_config;
  trace_config.capacity = std::size_t{1} << 22;
  std::unique_ptr<dqemu::trace::Tracer> tracer;
  std::vector<Repeat> plain, traced, ht1;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  while (traced.size() < 2 || Clock::now() < deadline) {
    plain.push_back(checked_repeat(w, args.seed, w.host_threads, nullptr,
                                   expected, &first, "untraced", tally));
    tracer.reset();  // free the previous recording before the next one
    tracer = std::make_unique<dqemu::trace::Tracer>(trace_config);
    traced.push_back(checked_repeat(w, args.seed, w.host_threads,
                                    tracer.get(), expected, &first, "traced",
                                    tally));
    records = tracer->size() + tracer->dropped();
    dropped = std::max(dropped, tracer->dropped());
    if (w.host_threads > 1) {
      ht1.push_back(checked_repeat(w, args.seed, 1, nullptr, expected, &first,
                                   "host_threads=1 companion", tally));
    }
    if (!tally.failures.empty()) return out;
  }
  auto probe = dbt_kernel_probe(kCompute, args.seed);
  if (!probe.is_ok()) {
    tally.failures.push_back("probe: " + probe.status().to_string());
    return out;
  }
  out.metrics = layer_metrics(w.host_threads, traced, plain, ht1, records,
                              dropped, tracer->records(), probe.value());
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
}

int run_all(const Args& args) {
  std::vector<const Workload*> selected;
  for (const Workload& w : workloads()) {
    if (args.workload == "all" || w.name == args.workload) {
      selected.push_back(&w);
    }
  }
  Tally total;
  std::vector<Metric> all_metrics;
  for (const Workload* w : selected) {
    print_stamp(*w, args);
    std::fflush(stdout);
    Outcome o = run_workload(*w, args);
    for (Metric& m : o.metrics) {
      if (selected.size() > 1) m.name = std::string(w->name) + "." + m.name;
      all_metrics.push_back(m);
    }
    total.attempted += o.tally.attempted;
    total.failed += o.tally.failed;
    total.failures.insert(total.failures.end(), o.tally.failures.begin(),
                          o.tally.failures.end());
    std::printf("{\"workload\": \"%s\", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"failed_frac\": %.17g, "
                "\"run_s_samples\": [",
                std::string(w->name).c_str(), o.tally.attempted,
                o.tally.failed,
                ratio(o.tally.failed,
                      std::max<std::uint64_t>(o.tally.attempted, 1)));
    for (std::size_t i = 0; i < o.run_samples.size(); ++i) {
      std::printf("%s%.6g", i == 0 ? "" : ", ", o.run_samples[i]);
    }
    std::printf("]}\n");
  }
  for (const std::string& f : total.failures) {
    std::fprintf(stderr, "dqemu_perfbench: FAILED %s\n", f.c_str());
  }
  const bool correct = total.failures.empty();
  // Crashed attempts (run_isolated) count as failed operations; they
  // produced no output, so they do not make the outputs incorrect.
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false",
              std::max<std::uint64_t>(total.attempted + g_carried.attempted,
                                      1),
              std::max<std::uint64_t>(total.failed + g_carried.failed,
                                      correct ? 0 : 1));
  print_metrics(all_metrics);
  std::printf("}}\n");
  return correct ? 0 : 1;
}

/// A child that finishes no repeat for this long is hung.
constexpr auto kStallLimit = std::chrono::seconds(20);
/// Attempts a run makes at most. A restart also needs the rest of the run
/// plus this margin (warm-up, companion runs, a possible stall) to end
/// within the 180-second limit of one invocation.
constexpr int kMaxAttempts = 8;
constexpr auto kInvocationLimit = std::chrono::seconds(170);
constexpr auto kRestartMargin = std::chrono::seconds(40);

/// Runs the benchmark in a child process, so that a crash or a hang of the
/// simulator is reported instead of ending the run without a result.
///
/// A crash or hang during a repeat at host_threads > 1, in a run whose
/// checks had all passed, is the parallel kernel's known thread-pool race
/// (README.md, "Known failure"): it is reported, counted as one failed
/// operation, and a new child resumes the run with the timed repeats and
/// deadline of the crashed one, at most kMaxAttempts times. Any other crash
/// or hang ends the run with a result whose `correct` is false.
int run_isolated(const Args& args) {
  void* shared = mmap(nullptr, sizeof(Progress), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) {
    std::perror("dqemu_perfbench: mmap");
    return 1;
  }
  const auto start = Clock::now();
  g_progress = new (shared) Progress();
  for (int attempt = 1;; ++attempt) {
    g_progress->repeats = 0;
    g_progress->attempted = 0;
    g_progress->failed = 0;
    g_progress->host_threads = 0;
    std::fflush(stdout);
    const pid_t child = fork();
    if (child < 0) {
      std::perror("dqemu_perfbench: fork");
      return 1;
    }
    if (child == 0) std::exit(run_all(args));

    int status = 0;
    bool hung = false;
    std::uint64_t seen = 0;
    auto last_progress = Clock::now();
    while (waitpid(child, &status, WNOHANG) == 0) {
      const std::uint64_t repeats = g_progress->repeats;
      if (repeats != seen) {
        seen = repeats;
        last_progress = Clock::now();
      } else if (Clock::now() - last_progress > kStallLimit) {
        kill(child, SIGKILL);
        waitpid(child, &status, 0);
        hung = true;
        break;
      }
      usleep(20000);
    }
    if (!hung && WIFEXITED(status)) return WEXITSTATUS(status);

    const std::uint32_t host_threads = g_progress->host_threads;
    const std::string what =
        hung ? "hung: no repeat finished in " +
                   std::to_string(kStallLimit.count()) + " s"
             : "crashed: " + std::string(strsignal(WTERMSIG(status)));
    g_carried.attempted += g_progress->attempted + 1;
    g_carried.failed += g_progress->failed + 1;
    std::fprintf(stderr,
                 "dqemu_perfbench: FAILED %s: %s (attempt %d, during %s)\n",
                 args.workload.c_str(), what.c_str(), attempt,
                 host_threads == 0
                     ? "no simulation run"
                     : ("a run at host_threads " +
                        std::to_string(host_threads))
                           .c_str());
    const bool parallel_race = host_threads > 1 && g_progress->failed == 0;
    const bool time_left =
        std::max(Clock::now(), start + std::chrono::seconds(args.seconds)) +
            kRestartMargin <
        start + kInvocationLimit;
    if (!parallel_race || attempt >= kMaxAttempts || !time_left) {
      std::printf("{\"correct\": false, \"attempted\": %" PRIu64
                  ", \"failed\": %" PRIu64 ", \"metrics\": {}}\n",
                  g_carried.attempted, g_carried.failed);
      return 1;
    }
    std::fprintf(stderr,
                 "dqemu_perfbench: the known thread-pool race of the parallel "
                 "kernel; counted as one failed operation, resuming the "
                 "run\n");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run_isolated(perfbench::parse_args(argc, argv));
}
