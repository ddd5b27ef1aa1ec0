// smoqe_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// One run of one workload. Human-readable lines start with '#'; the last
// stdout line is the JSON result. Exit 0 on a correct run, 1 on any
// failure or oracle mismatch, 2 on bad arguments or a Debug build.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace smoqebench {
namespace {

// setup_s is the median of 2 × kSetupsPerSide timed set-ups, half before
// the load and half after it, each side spread over about 2 s: the host's
// speed changes in episodes of seconds, and one burst of set-ups would
// land in a single episode.
constexpr int kSetupsPerSide = 24;
constexpr double kSetupGapSeconds = 0.08;
// The write probe of workloads without a writer runs twice, before and
// after the load, for the same reason as the set-ups. Each time: whole
// writer cycles until at least 204 updates (the printed p95 has 10
// samples beyond) and at least 2 s (cheap updates still span many
// cycles).
constexpr int kWriteProbeUpdates = 204;
constexpr double kWriteProbeSeconds = 2.0;
constexpr double kWarmupSeconds = 1.0;

const char* Env(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// Starts a new peak-RSS window: hands freed heap back to the system, so
/// what the oracle and the earlier set-ups left behind does not count, and
/// resets the kernel's high-water mark (VmHWM) to the current RSS.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) Fail("cannot reset the peak RSS through /proc/self/clear_refs");
}

/// VmHWM: the peak resident set since the last ResetPeakRss, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  Fail("no VmHWM in /proc/self/status");
}

/// Prints each metric as a '#' line, then the JSON result line.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("# %-26s %14.4f %-5s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintProvenance(const Inputs& in, const Oracle& oracle, const Sizing& sz) {
  std::printf(
      "# provenance {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"doc_seed\": %llu, \"target_nodes\": %zu, "
      "\"doc_elements\": %d, \"doc_bytes\": %zu, \"roles\": %zu, "
      "\"plan_cache_capacity\": %zu, \"read_clients\": %d, \"writer_clients\": %d, "
      "\"server_workers\": %d, \"pool_threads\": %d, "
      "\"reference_answers\": %llu}\n",
      Env("SMOQEBENCH_GIT_SHA", "unknown"), Env("SMOQEBENCH_SOURCE_DIGEST", "unknown"),
      std::thread::hardware_concurrency(), SMOQEBENCH_COMPILER,
      SMOQEBENCH_BUILD_TYPE, in.name.c_str(),
      static_cast<unsigned long long>(in.seed),
      static_cast<unsigned long long>(in.doc_seed), in.target_nodes, in.doc_elements,
      in.doc_text.size(), in.roles.size(), kPlanCacheCapacity,
      ReaderThreads(in, sz), in.workload == Workload::kRwMix ? 1 : 0,
      sz.server_workers, sz.pool_threads,
      static_cast<unsigned long long>(oracle.answers_total));
}

int Usage() {
  std::fprintf(stderr,
               "usage: smoqe_bench --workload stream_batch|rw_mix --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "smoqe_bench: built without NDEBUG (Debug build); numbers "
               "would be meaningless. Rebuild with -DCMAKE_BUILD_TYPE=Release.\n");
  return 2;
#endif
  std::string workload, spans_path;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::atoll(v.c_str());
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--spans") spans_path = v;
    else return Usage();
  }
  Workload w;
  if (argc % 2 != 1 || !ParseWorkload(workload, &w) || seed < 0 ||
      seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  Inputs in = MakeInputs(w, static_cast<uint64_t>(seed));
  const Clock::time_point t_oracle = Clock::now();
  Oracle oracle = BuildOracle(&in);
  std::printf("# oracle built in %.2f s\n", MsSince(t_oracle) / 1e3);
  const Sizing sz = DefaultSizing();
  PrintProvenance(in, oracle, sz);
  if (oracle.answers_total == 0) Fail("the seed's reference answers are all empty");

  if (trace == 1) {
    if (spans_path.empty()) spans_path = "spans-" + in.name + ".jsonl";
    uint64_t attempted = 0, failed = 0;
    bool correct = true;
    std::vector<Metric> layers = RunTraced(in, oracle, sz, seconds, spans_path,
                                           &attempted, &failed, &correct);
    PrintResult(correct, attempted, failed, layers);
    return correct ? 0 : 1;
  }

  // Set-up: generated text → first accepted handshake. The first one also
  // pays first-touch costs and is not timed; the last one serves the load.
  std::vector<double> setups;
  std::unique_ptr<Deployment> dep;
  auto set_up = [&](bool timed) {
    dep.reset();
    double s = 0;
    dep = SetUp(in, sz, &s);
    if (timed) setups.push_back(s);
  };
  auto timed_set_ups = [&] {
    for (int k = 0; k < kSetupsPerSide; ++k) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kSetupGapSeconds));
      set_up(true);
    }
  };
  set_up(false);
  timed_set_ups();

  // peak_rss_mb covers the serving phase only: warm-up, load and write
  // probes on the last deployment.
  ResetPeakRss();
  RunState rs;
  rs.epoch_state[0] = 0;
  const bool rw = w == Workload::kRwMix;
  LoadResult all;  // every request of the run, for correctness accounting

  LoadOptions warm;
  warm.seconds = kWarmupSeconds;
  warm.writer = rw;
  warm.stream = 1;
  all.Merge(RunLoad(in, oracle, *dep, sz, warm, &rs));

  LoadOptions closed;
  closed.seconds = seconds;
  closed.writer = rw;
  closed.stream = 2;
  LoadResult writes;  // the probes', or on rw_mix the concurrent writer's
  auto write_probe = [&] {
    if (!rw) writes.Merge(RunWriteProbe(in, *dep, kWriteProbeUpdates,
                                        kWriteProbeSeconds, &rs));
  };
  write_probe();
  const LoadResult lat = RunLoad(in, oracle, *dep, sz, closed, &rs);
  write_probe();
  all.Merge(lat);
  all.Merge(writes);
  if (rw) writes = lat;
  const double peak_rss_mb = PeakRssMb();
  timed_set_ups();
  dep.reset();

  std::printf("# %s: %llu reads (%llu answers) over %.2f s; %llu writes "
              "(%llu accepted, %llu rejected as expected)\n",
              in.name.c_str(), static_cast<unsigned long long>(all.reads),
              static_cast<unsigned long long>(all.answers), lat.seconds,
              static_cast<unsigned long long>(all.writes),
              static_cast<unsigned long long>(all.accepted),
              static_cast<unsigned long long>(all.rejected));
  std::printf("# pooled over the run: read p50 %.4f ms, p95 %.4f ms, p99 %.4f ms "
              "(n=%zu); write p50 %.4f ms, p95 %.4f ms (n=%zu)\n",
              Quantile(Latencies(lat.reads_t), 0.5), Quantile(Latencies(lat.reads_t), 0.95),
              Quantile(Latencies(lat.reads_t), 0.99), lat.reads_t.size(),
              Quantile(Latencies(writes.writes_t), 0.5),
              Quantile(Latencies(writes.writes_t), 0.95), writes.writes_t.size());
  std::printf("# set-up over %zu runs: min %.4f s, q1 %.4f s, median %.4f s, "
              "q3 %.4f s, max %.4f s\n",
              setups.size(), Quantile(setups, 0), Quantile(setups, 0.25),
              Median(setups), Quantile(setups, 0.75), Quantile(setups, 1));
  for (const std::string& e : all.errors) std::printf("# error: %s\n", e.c_str());

  // write_mean_ms is not a write p50: the writer cycle's updates take three
  // distinct times (accepted on a view-cache miss, denied, accepted on a
  // hit; two updates each), so the median falls in the gap between two of
  // them and jumps between runs. Each cycle's mean update latency, over
  // every update of the cycle once, is steady; the metric is their median.
  const std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setups), setups.size()},
      {"peak_rss_mb", "MB", peak_rss_mb, 0},
      {"read_p50_ms", "ms", WindowedQuantile(lat.reads_t, 0.50, 50), lat.reads_t.size()},
      {"read_p95_ms", "ms", WindowedQuantile(lat.reads_t, 0.95, 200), lat.reads_t.size()},
      {"read_rps", "1/s", WindowedRate(lat.reads_t, lat.start_s, 50), lat.reads_t.size()},
      {"write_mean_ms", "ms", GroupedMean(writes.writes_t, in.writer_cycle.size()),
       writes.writes_t.size()},
  };
  const uint64_t attempted = all.reads + all.writes;
  const uint64_t failed = all.failed;
  const bool correct = failed == 0 && all.mismatches == 0 && all.answers > 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace smoqebench

int main(int argc, char** argv) { return smoqebench::Main(argc, argv); }
