// Experiment E13 (DESIGN.md §4, §7): parallel query serving.
//
// PR 3 made N queries share one scan (E11); PR 5 makes the engine use all
// the cores the hardware has. Rows sweep threads ∈ {1, 2, 4, 8} over
//
//   parallel_stax_batch — BatchEvaluator::RunParallel on the E11 16-query
//                         service mix: one shared tokenizer, per-plan
//                         engine advancement fanned across the pool
//                         (threads=1 = the serial Run baseline);
//   parallel_dom_batch  — Smoqe::QueryBatch with every mix item in DOM
//                         mode: independent items fanned across the pool
//                         against one pinned snapshot;
//   parallel_rwmix      — the read side of a live document: QueryBatch
//                         rounds measured while one background writer
//                         applies updates continuously (epoch-pinned
//                         snapshots mean readers never block on it).
//
// The shape to check: aggregate throughput (nodes_per_sec) rising with
// the thread count on multi-core hosts, and the rwmix rows close to the
// read-only rows (the writer steals one core's worth of work but never a
// lock readers wait on). Acceptance floor: ≥ 3× at 8 threads vs 1 thread
// on the 16-query mix at 100k nodes — on a host with ≥ 8 cores; a 1-core
// container records ~1× (the sweep still validates correctness: parallel
// answers are differential-checked against serial before any row).
//
// Every row records its thread count in the JSON schema ("threads") so
// downstream diffs never compare serial and parallel rows blind.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/core/smoqe.h"
#include "src/eval/batch.h"
#include "src/workload/workloads.h"

namespace smoqe {
namespace {

using bench::CompileMix;
using bench::Corpus;

/// The E11 deterministic service mix (see bench_batch.cc for the
/// composition rationale: selective slices + scans + 1/16 heavy
/// recursive analytics), cycled to size n.
std::vector<std::string> QueryMix(size_t n) {
  static const std::vector<std::string> kBase = {
      "hospital/patient/pname",
      "hospital/patient/visit/treatment/medication",
      "hospital/patient[visit/treatment/test]/visit/date",
      "hospital/patient[(parent/patient)*/visit/treatment/test and "
      "visit/treatment[medication/text()='headache']]/pname",
      "hospital/patient/(parent/patient)*/pname",
      "//medication",
      "//parent/patient/visit/treatment/test",
      "//visit/date",
      "//patient[visit/treatment/medication = 'autism']/pname",
      "//patient[parent]/pname",
      "//patient/visit/treatment",
      "//treatment[medication]",
      "//patient[not(visit/treatment/test)]/pname",
      "//pname | //date",
      "//patient[visit/treatment[medication = 'flu'] and "
      "not(parent)]/visit/date",
      "//patient[.//medication = 'autism']/pname",
  };
  std::vector<std::string> mix;
  mix.reserve(n);
  for (size_t i = 0; i < n; ++i) mix.push_back(kBase[i % kBase.size()]);
  return mix;
}

/// A facade engine over the corpus hospital document at `size`, with the
/// research view for the rwmix writer. One per (size, threads) config.
std::unique_ptr<core::Smoqe> MakeEngine(size_t size, int threads) {
  core::EngineOptions o;
  o.max_threads = threads;
  auto engine = std::make_unique<core::Smoqe>(o);
  Corpus::Check(
      engine->RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok(),
      "bench dtd");
  Corpus::Check(
      engine->LoadDocument("ward", Corpus::Get().HospitalText(size)).ok(),
      "bench load");
  Corpus::Check(engine
                    ->DefineView("research", "hospital",
                                 workload::kHospitalPolicyResearch)
                    .ok(),
                "bench view");
  return engine;
}

std::vector<core::BatchQueryItem> DomItems(size_t n) {
  std::vector<core::BatchQueryItem> items;
  for (const std::string& q : QueryMix(n)) {
    core::BatchQueryItem it;
    it.query = q;
    it.options.mode = core::EvalMode::kDom;
    items.push_back(std::move(it));
  }
  return items;
}

// ---------------------------------------------------------------------
// google-benchmark entries (interactive sweeps; the recorded trajectory
// is WriteParallelTrajectory below).
// ---------------------------------------------------------------------

void StaxBatchParallel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const std::string& text =
      Corpus::Get().HospitalText(static_cast<size_t>(state.range(2)));
  auto plans = CompileMix(QueryMix(n));
  eval::BatchEvaluator batch;
  for (const automata::Mfa* mfa : plans) batch.AddPlan(mfa);
  ThreadPool pool(threads);
  eval::BatchParallelOptions par;
  par.pool = &pool;
  size_t answers = 0;
  for (auto _ : state) {
    auto r = threads > 1 ? batch.RunParallel(text, par) : batch.Run(text);
    Corpus::Check(r.ok(), "parallel batch eval");
    answers = 0;
    for (const auto& pr : *r) answers += pr.answers.size();
    benchmark::DoNotOptimize(*r);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["threads"] = static_cast<double>(threads);
}

void DomBatchParallel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto engine = MakeEngine(static_cast<size_t>(state.range(2)), threads);
  auto items = DomItems(n);
  size_t answers = 0;
  for (auto _ : state) {
    auto r = engine->QueryBatch("ward", items);
    Corpus::Check(r.ok(), "parallel dom batch");
    answers = 0;
    for (const auto& a : *r) answers += a.answers_xml.size();
    benchmark::DoNotOptimize(*r);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["threads"] = static_cast<double>(threads);
}

void RegisterAll() {
  for (long threads : {1, 2, 4, 8}) {
    for (long size : {10000, 100000}) {
      benchmark::RegisterBenchmark(
          ("E13_StaxBatch/t=" + std::to_string(threads) +
           "/n=" + std::to_string(size))
              .c_str(),
          StaxBatchParallel)
          ->Args({16, threads, size})
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("E13_DomBatch/t=" + std::to_string(threads) +
           "/n=" + std::to_string(size))
              .c_str(),
          DomBatchParallel)
          ->Args({16, threads, size})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

int dummy = (RegisterAll(), 0);

/// Differential gate: parallel answers must be byte-identical to serial
/// before any speedup row is recorded.
void CheckParallelMatchesSerial(eval::BatchEvaluator& batch,
                                const std::string& text,
                                const eval::BatchParallelOptions& par) {
  auto serial = batch.Run(text);
  Corpus::Check(serial.ok(), "serial gate eval");
  auto parallel = batch.RunParallel(text, par);
  Corpus::Check(parallel.ok(), "parallel gate eval");
  Corpus::Check(parallel->size() == serial->size(), "gate: plan count");
  for (size_t k = 0; k < serial->size(); ++k) {
    Corpus::Check(
        (*parallel)[k].answers.size() == (*serial)[k].answers.size(),
        "gate: answer count");
    for (size_t a = 0; a < (*serial)[k].answers.size(); ++a) {
      Corpus::Check(
          (*parallel)[k].answers[a].xml == (*serial)[k].answers[a].xml,
          "gate: answer bytes");
    }
  }
}

}  // namespace

// Extern (not in the anonymous namespace): called from main below.
void WriteParallelTrajectory(const char* path) {
  bench::JsonReport report;
  const size_t kMixSize = 16;
  for (size_t size : bench::TrajectorySizes()) {
    const std::string& text = Corpus::Get().HospitalText(size);
    const uint64_t nodes = Corpus::Get().Hospital(size).num_nodes();
    auto plans = CompileMix(QueryMix(kMixSize));

    double ns_1t = 0;
    for (int threads : {1, 2, 4, 8}) {
      // StAX batch behind the shared tokenizer.
      eval::BatchEvaluator batch;
      for (const automata::Mfa* mfa : plans) batch.AddPlan(mfa);
      ThreadPool pool(threads);
      eval::BatchParallelOptions par;
      par.pool = &pool;
      if (threads > 1) CheckParallelMatchesSerial(batch, text, par);
      double stax_ns = bench::MeasureMinNsPerIter([&] {
        auto r = threads > 1 ? batch.RunParallel(text, par) : batch.Run(text);
        Corpus::Check(r.ok(), "stax trajectory eval");
      });
      if (threads == 1) ns_1t = stax_ns;
      const bench::LatencyPercentiles stax_pct =
          bench::MeasureLatencyPercentiles(
              [&] {
                auto r =
                    threads > 1 ? batch.RunParallel(text, par) : batch.Run(text);
                Corpus::Check(r.ok(), "stax trajectory eval");
              },
              /*min_iters=*/20, /*min_seconds=*/0.2);

      bench::TrajectoryRow row;
      row.engine = "parallel_stax_batch";
      row.workload = "hospital";
      row.query = "mix16";
      row.config = threads > 1 ? "parallel" : "serial";
      row.nodes = nodes;
      row.threads = static_cast<uint64_t>(threads);
      row.ns_per_node = stax_ns / static_cast<double>(nodes);
      row.nodes_per_sec = static_cast<double>(kMixSize) *
                          static_cast<double>(nodes) * 1e9 / stax_ns;
      row.p50_ns = stax_pct.p50_ns;
      row.p99_ns = stax_pct.p99_ns;
      report.Add(std::move(row));

      // DOM batch through the facade (items fan out across the pool).
      auto engine = MakeEngine(size, threads);
      auto items = DomItems(kMixSize);
      double dom_ns = bench::MeasureMinNsPerIter([&] {
        auto r = engine->QueryBatch("ward", items);
        Corpus::Check(r.ok(), "dom trajectory eval");
      });
      const bench::LatencyPercentiles dom_pct =
          bench::MeasureLatencyPercentiles(
              [&] {
                auto r = engine->QueryBatch("ward", items);
                Corpus::Check(r.ok(), "dom trajectory eval");
              },
              /*min_iters=*/20, /*min_seconds=*/0.2);
      bench::TrajectoryRow dom_row;
      dom_row.engine = "parallel_dom_batch";
      dom_row.workload = "hospital";
      dom_row.query = "mix16";
      dom_row.config = threads > 1 ? "parallel" : "serial";
      dom_row.nodes = nodes;
      dom_row.threads = static_cast<uint64_t>(threads);
      dom_row.ns_per_node = dom_ns / static_cast<double>(nodes);
      dom_row.nodes_per_sec = static_cast<double>(kMixSize) *
                              static_cast<double>(nodes) * 1e9 / dom_ns;
      dom_row.p50_ns = dom_pct.p50_ns;
      dom_row.p99_ns = dom_pct.p99_ns;
      report.Add(std::move(dom_row));

      // Read/write mix: reader rounds timed under a continuous background
      // writer (the E12 research-view replace, which re-matches its own
      // replacement, so every write does real work).
      {
        auto rw_engine = MakeEngine(size, threads);
        std::atomic<bool> stop{false};
        std::atomic<uint64_t> writes{0};
        std::thread writer([&] {
          core::UpdateOptions w;
          w.view = "research";
          while (!stop.load(std::memory_order_acquire)) {
            auto u = rw_engine->Update(
                "ward",
                "replace //treatment[test] with "
                "<treatment><test>bench</test></treatment>",
                w);
            Corpus::Check(u.ok(), "rwmix write");
            writes.fetch_add(1, std::memory_order_relaxed);
          }
        });
        double rw_ns = bench::MeasureMinNsPerIter([&] {
          auto r = rw_engine->QueryBatch("ward", items);
          Corpus::Check(r.ok(), "rwmix read");
        });
        stop.store(true, std::memory_order_release);
        writer.join();

        bench::TrajectoryRow rw_row;
        rw_row.engine = "parallel_rwmix";
        rw_row.workload = "hospital";
        rw_row.query = "mix16+writer";
        rw_row.config = threads > 1 ? "parallel" : "serial";
        rw_row.nodes = nodes;
        rw_row.threads = static_cast<uint64_t>(threads);
        rw_row.answers = writes.load(std::memory_order_relaxed);
        rw_row.ns_per_node = rw_ns / static_cast<double>(nodes);
        rw_row.nodes_per_sec = static_cast<double>(kMixSize) *
                               static_cast<double>(nodes) * 1e9 / rw_ns;
        report.Add(std::move(rw_row));
      }

      std::fprintf(stderr,
                   "parallel size=%zu threads=%d: stax %.2f ms (%.2fx vs "
                   "1t), dom %.2f ms\n",
                   size, threads, stax_ns / 1e6,
                   ns_1t > 0 ? ns_1t / stax_ns : 0.0, dom_ns / 1e6);
    }
  }
  if (!report.WriteFileMerged(
          path, {"parallel_stax_batch", "parallel_dom_batch",
                 "parallel_rwmix"})) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "merged %zu parallel trajectory rows into %s\n",
                 report.size(), path);
  }
}

}  // namespace smoqe

// Custom main (not benchmark_main): after the google-benchmark run, sweep
// threads × size and merge the rows into the BENCH_eval.json trajectory.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteParallelTrajectory("BENCH_eval.json");
  }
  return 0;
}
