// Shared declarations of the smoqe_bench benchmark (see ../README.md).
//
// The benchmark drives an in-process smoqed (server::Server over a
// core::Smoqe engine) with generated traffic over loopback TCP. Inputs
// come from the seed alone (inputs.cc); every answer is checked against
// a reference computed without the engine's query path (oracle.cc); the
// traffic generators live in loadgen.cc and the per-layer traced run in
// traced.cc.

#ifndef SMOQEBENCH_BENCH_H_
#define SMOQEBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/smoqe.h"
#include "src/server/protocol.h"
#include "src/server/server.h"

namespace smoqebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now());
}

/// Value at quantile q (0..1) of `v` by the nearest-rank rule; 0 when
/// empty. Sorts a copy.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Seconds since the process's first call (a shared steady-clock origin).
double Seconds(Clock::time_point t);

/// One timed request: completion time (Seconds) and latency.
struct Timed {
  double at_s = 0;
  double ms = 0;
};
std::vector<double> Latencies(const std::vector<Timed>& v);
/// Robust run statistics: the samples, in completion order, are cut into
/// consecutive windows of at least `per_window` samples; the result is the
/// median over windows of each window's q-quantile (or completion rate),
/// so a burst of host noise moves one window, not the run's figure.
double WindowedQuantile(std::vector<Timed> v, double q, size_t per_window);
double WindowedRate(std::vector<Timed> v, double start_s, size_t per_window);
/// Median over consecutive groups of `group` samples, in completion order,
/// of each group's mean latency (a trailing partial group is dropped).
double GroupedMean(std::vector<Timed> v, size_t group);

/// Prints "# <text>" to stdout (human-readable lines; the last stdout line
/// of a run is the JSON result) and exits 1 with `what` on stderr.
[[noreturn]] void Fail(const std::string& what);

// ---------------------------------------------------------------------
// Inputs (inputs.cc)
// ---------------------------------------------------------------------

enum class Workload { kStreamBatch, kRwMix };

struct Role {
  std::string name;    ///< view name = wire role
  std::string policy;  ///< view::Policy text over the hospital DTD
};

/// One update of the writer's cycle.
struct UpdateOp {
  std::string stmt;
  bool expect_accept = true;
  int state_after = -1;  ///< document state once accepted (see Inputs)
};

/// Everything a run needs, generated from (workload, seed) alone.
struct Inputs {
  Workload workload = Workload::kStreamBatch;
  std::string name;
  uint64_t seed = 0;
  size_t target_nodes = 0;
  uint64_t doc_seed = 0;  ///< generator seed of the accepted document
  int doc_elements = 0;
  std::string doc_text;
  std::vector<Role> roles;
  /// Query pool per role (index = role). Reads draw from their role's
  /// pool; the oracle holds a reference for every (state, role, query).
  std::vector<std::vector<std::string>> queries;
  /// Roles bound by the read clients, one client thread each.
  std::vector<int> reader_roles;
  int writer_role = -1;
  /// The writer's cycle; accepted updates move the document between
  /// states 0 (the generated document), 1 and 2 and end in state 0.
  std::vector<UpdateOp> writer_cycle;
  int num_states = 1;
};

Inputs MakeInputs(Workload w, uint64_t seed);
/// The writer cycle with the constants of `variant` (0..35; 0 = MakeInputs').
std::vector<UpdateOp> WriterCycleVariant(int variant);
const char* WorkloadName(Workload w);
int CountElements(const std::string& xml_text);
bool ParseWorkload(const std::string& s, Workload* w);

// Workload constants (README.md "Workloads").
inline constexpr int kBatchItems = 16;  // QUERY_BATCH items (stream_batch)
inline constexpr size_t kPlanCacheCapacity =
    smoqe::core::PlanCache::kDefaultCapacity;

// ---------------------------------------------------------------------
// Oracle (oracle.cc)
// ---------------------------------------------------------------------

/// Order-sensitive digest of an answer list (count + FNV-1a over the
/// length-prefixed answers).
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 1469598103934665603ull;
  void Add(const std::string& answer);
  bool operator==(const Digest& o) const {
    return count == o.count && hash == o.hash;
  }
};

struct Oracle {
  /// expected[state][role][query]
  std::vector<std::vector<std::vector<Digest>>> expected;
  /// Serialized document per state (state 0 = the generated text's tree).
  std::vector<std::string> state_xml;
  uint64_t answers_total = 0;  ///< answers summed over state 0's pairs
};

/// Computes Q(V(T)) for every (state, role, query) with the reference
/// evaluator over the materialized view; the states come from applying
/// the writer cycle to a scratch engine (whose accept/reject must match
/// the cycle's expectations). Replaces `in->writer_cycle` by the first
/// variant whose accepted updates all select at least one node.
Oracle BuildOracle(Inputs* in);

// ---------------------------------------------------------------------
// Deployment: engine + server + client (loadgen.cc)
// ---------------------------------------------------------------------

/// Thread counts of one deployment (recorded in the provenance line).
struct Sizing {
  int client_threads = 4;
  int server_workers = 4;
  int pool_threads = 4;
};
Sizing DefaultSizing();
/// Read client threads of a workload (plus one writer thread on rw_mix).
int ReaderThreads(const Inputs& in, const Sizing& sz);

struct Deployment {
  std::unique_ptr<smoqe::core::Smoqe> engine;
  std::unique_ptr<smoqe::server::Server> server;
  ~Deployment();
};

/// Builds engine + TAX + views + server from the generated text and
/// returns once the first handshake is accepted; `*seconds` = that time.
std::unique_ptr<Deployment> SetUp(const Inputs& in, const Sizing& sz,
                                  double* seconds);

/// Blocking loopback connection bound to one role. Not thread-safe.
class Wire {
 public:
  Wire(uint16_t port, const std::string& role);  // Fail()s on error
  ~Wire();
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Sends one encoded request frame and returns the response frame.
  smoqe::server::RawFrame Call(const std::string& frame);

 private:
  int fd_ = -1;
  smoqe::server::FrameExtractor frames_;
  uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------
// Load generation (loadgen.cc)
// ---------------------------------------------------------------------

/// One client-side span (traced runs only).
struct Span {
  uint64_t request = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;
  int64_t start_ns = 0;  ///< steady clock, relative to the run's origin
  int64_t end_ns = 0;
  std::map<std::string, double> counts;
};

/// What one load phase observed.
struct LoadResult {
  std::vector<Timed> reads_t;     ///< per read request
  std::vector<Timed> writes_t;    ///< per update request
  std::vector<double> late_ms;    ///< client turnaround: reply → next send
  double start_s = 0;             ///< phase start (Seconds)
  double seconds = 0;             ///< measured wall time of the phase
  uint64_t reads = 0, writes = 0, answers = 0;
  uint64_t failed = 0;            ///< transport/engine errors + wrong outcomes
  uint64_t mismatches = 0;        ///< answers differing from the oracle
  uint64_t accepted = 0, rejected = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  void Merge(const LoadResult& o);
};

struct LoadOptions {
  double seconds = 1;
  bool writer = false;      ///< rw_mix: one writer thread beside the readers
  uint64_t stream = 0;      ///< RNG stream (distinct per phase)
  std::vector<Span>* spans = nullptr;  ///< record roundtrip spans (traced)
};

/// Shared state of a run: the epoch → state map the writer fills.
struct RunState {
  std::mutex mu;
  std::map<uint64_t, int> epoch_state;  ///< guarded by mu
  size_t writer_pos = 0;                ///< next op of the writer cycle
};

LoadResult RunLoad(const Inputs& in, const Oracle& oracle,
                   const Deployment& dep, const Sizing& sz,
                   const LoadOptions& opt, RunState* rs);

/// Sends whole writer cycles one update after another until at least
/// `min_updates` updates and `min_seconds` have passed (the write probe of
/// workloads without a concurrent writer).
LoadResult RunWriteProbe(const Inputs& in, const Deployment& dep,
                         int min_updates, double min_seconds, RunState* rs);

// ---------------------------------------------------------------------
// Traced run (traced.cc)
// ---------------------------------------------------------------------

/// One reported metric; `samples` (0 = not a sampled statistic) is
/// printed next to it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;
};

/// Runs the traced pass: stage-timed set-up, an untraced and a traced
/// load phase, and a sample of the workload's requests sent over the
/// wire, through the facade and replayed stage by stage. Writes the span
/// file and returns the per-layer metrics.
std::vector<Metric> RunTraced(const Inputs& in, const Oracle& oracle,
                                   const Sizing& sz, double seconds,
                                   const std::string& span_path,
                                   uint64_t* attempted, uint64_t* failed,
                                   bool* correct);

}  // namespace smoqebench

#endif  // SMOQEBENCH_BENCH_H_
