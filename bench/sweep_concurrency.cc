// GaussDb scaling sweep: worker threads x batch size -> QPS, p50/p99
// latency, logical pages per query. One database is built once and served
// through per-cell Sessions (each Serve() call builds an independent
// sharded-cache + worker-pool stack over the same finalized pages); every
// (threads, batch) cell runs the same MLIQ workload on a warm cache, and the
// answers of every cell are checked against the single-worker run, so the
// speedup numbers can't come from computing something different.
//
// Scaling expectation: queries are independent read-only traversals, so QPS
// grows with worker count until the machine runs out of cores (on a 1-core
// container all cells collapse to single-thread throughput — the sweep
// reports hardware_concurrency so the context is visible in the output).
//
// A second section reruns the workload against a *file-backed* copy of the
// database through a cache much smaller than the tree: answers must stay
// identical to the reference (the bench exits non-zero otherwise), and its
// pages/query is the same logical-read count as the in-memory cells.
//
// GAUSS_BENCH_SCALE in (0,1] shrinks the dataset for quick runs. When
// GAUSS_BENCH_JSON names a file, every cell appends its metrics as a JSON
// line for bench/check_regression.py (the CI bench-regression guard).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/gauss_db.h"
#include "data/generators.h"
#include "data/workload.h"
#include "eval/report.h"

namespace gauss::bench {
namespace {

// Compares the shared prefix: every batch is a prefix of the 512-query
// reference workload, so answer i must match answer i.
bool SameAnswers(const BatchResult& a, const BatchResult& b) {
  const size_t n = std::min(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < n; ++i) {
    const auto& x = a.responses[i].items;
    const auto& y = b.responses[i].items;
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].id != y[j].id ||
          std::memcmp(&x[j].probability, &y[j].probability, sizeof(double)) !=
              0) {
        return false;
      }
    }
  }
  return true;
}

void Run() {
  PrintBanner(std::cout, "GaussDb concurrency sweep (3-MLIQ, warm cache)");
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }

  ClusteredDatasetConfig config;
  config.size = static_cast<size_t>(100000 * scale);
  config.dim = 10;
  const PfvDataset dataset = GenerateClusteredDataset(config);

  GaussDb db = GaussDb::CreateInMemory(config.dim);
  db.Build(dataset);

  WorkloadConfig wconfig;
  wconfig.query_count = 512;
  const auto workload = GenerateWorkload(dataset, wconfig);

  std::cout << "objects: " << dataset.size()
            << "  hardware threads: " << std::thread::hardware_concurrency()
            << "\n\n";

  Table table({"workers", "batch", "qps", "speedup", "p50 us", "p99 us",
               "pages/query"});
  double single_thread_qps = 0.0;

  auto make_batch = [&](size_t batch_size) {
    std::vector<Query> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(
          Query::Mliq(workload[i % workload.size()].query, /*k=*/3)
              .Accuracy(1e-2));
    }
    return batch;
  };

  // Reference answers from a dedicated single-worker run over the full
  // workload, captured before the sweep so *every* cell is checked against
  // it (smaller batches are prefixes, so answer i must match answer i).
  ServeOptions ref_serve;
  ref_serve.num_workers = 1;
  ref_serve.cache_pages = 1 << 15;
  const BatchResult reference =
      db.Serve(ref_serve).ExecuteBatch(make_batch(512));

  for (size_t workers : {1, 2, 4, 8, 16}) {
    for (size_t batch_size : {64, 512}) {
      const std::vector<Query> batch = make_batch(batch_size);

      // Serving pool sized for the whole tree: the sweep measures
      // concurrency scaling, not cache misses (sweep_cache covers those).
      ServeOptions serve;
      serve.num_workers = workers;
      serve.cache_pages = 1 << 15;
      serve.queue_capacity = batch_size;
      Session session = db.Serve(serve);

      session.ExecuteBatch(batch);  // warm the cache and the threads
      session.cache().ResetStats();
      BatchResult result = session.ExecuteBatch(batch);

      if (!SameAnswers(result, reference)) {
        std::cout << "ERROR: answers diverged at " << workers << " workers\n";
        std::exit(1);
      }

      const ServiceStats& stats = result.stats;
      if (workers == 1 && batch_size == 512) single_thread_qps = stats.qps;
      table.AddRow(
          {Table::Int(workers), Table::Int(batch_size), Table::Num(stats.qps),
           single_thread_qps > 0.0 && workers > 1
               ? Table::Num(stats.qps / single_thread_qps, 2) + "x"
               : "-",
           Table::Num(stats.latency.p50_us), Table::Num(stats.latency.p99_us),
           Table::Num(stats.pages_per_query())});

      BenchCellMetrics metrics;
      metrics.bench = "sweep_concurrency";
      metrics.scale = scale;
      metrics.cell = "workers=" + std::to_string(workers) +
                     ",batch=" + std::to_string(batch_size);
      metrics.qps = stats.qps;
      metrics.p99_us = stats.latency.p99_us;
      metrics.pages_per_query = stats.pages_per_query();
      AppendBenchJson(metrics);
    }
  }
  table.Print(std::cout);
  std::cout << "speedup is vs 1 worker / batch 512; answers of every cell "
               "verified identical to the single-worker run\n";

  // ---- File-backed section ----------------------------------------------
  // Same gallery persisted to disk, served through a cache far smaller than
  // the tree so traversals genuinely read the device on misses.
  PrintBanner(std::cout, "File-backed serving (cache << tree, 3-MLIQ)");
  const std::string path = "sweep_concurrency_file.db";
  {
    GaussDb file_db = GaussDb::CreateOnFile(path, config.dim);
    file_db.Build(dataset);
    ServeOptions serve;
    serve.num_workers = 2;
    serve.cache_pages = 128;  // far below the tree's page count
    serve.queue_capacity = 512;
    Session session = file_db.Serve(serve);

    const BatchResult result = session.ExecuteBatch(make_batch(512));
    if (!SameAnswers(result, reference)) {
      std::cout << "ERROR: file-backed answers diverged\n";
      std::exit(1);
    }

    const ServiceStats& stats = result.stats;
    Table ftable({"qps", "p50 us", "p99 us", "pages/query"});
    ftable.AddRow({Table::Num(stats.qps), Table::Num(stats.latency.p50_us),
                   Table::Num(stats.latency.p99_us),
                   Table::Num(stats.pages_per_query())});
    ftable.Print(std::cout);
    std::cout << "answers identical to the in-memory reference\n";

    BenchCellMetrics metrics;
    metrics.bench = "sweep_concurrency";
    metrics.scale = scale;
    metrics.cell = "file";
    metrics.qps = stats.qps;
    metrics.p99_us = stats.latency.p99_us;
    metrics.pages_per_query = stats.pages_per_query();
    AppendBenchJson(metrics);
  }
  std::remove(path.c_str());

  // ---- Mixed insert + query (live ingest) -------------------------------
  // The same gallery served with GaussDbOptions::ingest: one thread enrolls
  // a stream of new objects at full speed (kDeltaFull backpressure retried)
  // while a query thread keeps running the MLIQ workload — with background
  // merges rebuilding the base mid-stream. Reports enrollment throughput
  // and the query-side p99 under concurrent enrollment; exits non-zero if
  // an insert or query fails typed, or the final object count is off.
  PrintBanner(std::cout, "Live ingest: enroll while serving (3-MLIQ traffic)");
  GaussDbOptions live_options;
  live_options.ingest.enabled = true;
  live_options.ingest.delta_capacity = 1 << 14;
  live_options.ingest.merge_threshold = 1 << 12;
  GaussDb live_db = GaussDb::CreateInMemory(config.dim, live_options);
  live_db.Build(dataset);
  ServeOptions live_serve;
  live_serve.num_workers = 4;
  live_serve.cache_pages = 1 << 15;
  live_serve.queue_capacity = 512;
  Session live = live_db.Serve(live_serve);

  const size_t enroll_count = std::max<size_t>(512, dataset.size() / 10);
  ClusteredDatasetConfig extra_config = config;
  extra_config.size = enroll_count;
  extra_config.seed = config.seed + 1;
  const PfvDataset extra_raw = GenerateClusteredDataset(extra_config);

  std::atomic<bool> enrolling{true};
  std::atomic<bool> failed{false};
  std::vector<double> insert_us;
  insert_us.reserve(enroll_count);
  double enroll_seconds = 0.0;

  std::thread enroller([&] {
    const auto begin = std::chrono::steady_clock::now();
    for (size_t i = 0; i < extra_raw.size(); ++i) {
      Pfv pfv = extra_raw[i];
      pfv.id = 10000000 + i;  // disjoint from the base gallery's ids
      const auto t0 = std::chrono::steady_clock::now();
      for (;;) {
        const InsertResult result = live_db.Insert(pfv);
        if (result.ok()) break;
        if (result.outcome != InsertOutcome::kDeltaFull) {
          std::cout << "ERROR: insert failed: "
                    << InsertOutcomeName(result.outcome) << " "
                    << result.message << "\n";
          failed.store(true);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      insert_us.push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    enroll_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - begin)
                         .count();
    enrolling.store(false);
  });

  // Query traffic riding the enrollment window; the last batch completed
  // while enrollment was still running provides the under-load stats.
  const std::vector<Query> live_batch = make_batch(256);
  ServiceStats under_load;
  size_t concurrent_batches = 0;
  while (enrolling.load() && !failed.load()) {
    const BatchResult result = live.ExecuteBatch(live_batch);
    for (const QueryResponse& response : result.responses) {
      if (response.status != QueryResponse::Status::kOk) {
        std::cout << "ERROR: query failed under enrollment\n";
        failed.store(true);
        break;
      }
    }
    if (enrolling.load()) {
      under_load = result.stats;
      ++concurrent_batches;
    }
  }
  enroller.join();
  if (failed.load()) std::exit(1);
  size_t sustain_accepted = 0;
  if (concurrent_batches == 0) {
    // The timed burst above can finish before one batch completes (enrolling
    // is orders of magnitude faster than querying). Re-measure one batch
    // with a sustaining enroller running for its entire duration, so the
    // "query under enroll" cell is always an under-insert-load sample.
    std::atomic<bool> batch_done{false};
    std::thread sustainer([&] {
      for (size_t i = 0; !batch_done.load(); ++i) {
        Pfv pfv = extra_raw[i % extra_raw.size()];
        pfv.id = 20000000 + i;  // disjoint from base and burst ids
        const InsertResult result = live_db.Insert(pfv);
        if (result.ok()) {
          ++sustain_accepted;
        } else if (result.outcome == InsertOutcome::kDeltaFull) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          std::cout << "ERROR: sustained insert failed: "
                    << InsertOutcomeName(result.outcome) << "\n";
          failed.store(true);
          return;
        }
      }
    });
    const BatchResult result = live.ExecuteBatch(live_batch);
    batch_done.store(true);
    sustainer.join();
    if (failed.load()) std::exit(1);
    for (const QueryResponse& response : result.responses) {
      if (response.status != QueryResponse::Status::kOk) {
        std::cout << "ERROR: query failed under sustained enrollment\n";
        std::exit(1);
      }
    }
    under_load = result.stats;
    ++concurrent_batches;
  }

  // Drain the delta and verify nothing was lost across the epoch swaps.
  live_db.MergeIngest();
  const IngestStats ingest_stats = live_db.ingest_stats();
  if (live_db.size() != dataset.size() + enroll_count + sustain_accepted) {
    std::cout << "ERROR: live ingest lost objects: " << live_db.size()
              << " != " << dataset.size() + enroll_count + sustain_accepted
              << "\n";
    std::exit(1);
  }

  std::sort(insert_us.begin(), insert_us.end());
  const double insert_p99 =
      insert_us.empty()
          ? 0.0
          : insert_us[static_cast<size_t>(
                static_cast<double>(insert_us.size() - 1) * 0.99)];
  const double enroll_qps =
      enroll_seconds > 0.0 ? static_cast<double>(enroll_count) / enroll_seconds
                           : 0.0;

  Table itable({"metric", "value"});
  itable.AddRow({"enrollments", Table::Int(enroll_count)});
  itable.AddRow({"ingest qps", Table::Num(enroll_qps)});
  itable.AddRow({"insert p99 us", Table::Num(insert_p99)});
  itable.AddRow({"query qps under enroll", Table::Num(under_load.qps)});
  itable.AddRow({"query p99 us under enroll",
                 Table::Num(under_load.latency.p99_us)});
  itable.AddRow({"concurrent batches", Table::Int(concurrent_batches)});
  itable.AddRow({"merges completed", Table::Int(ingest_stats.merges_completed)});
  itable.Print(std::cout);
  std::cout << "final size verified: base + every accepted enrollment\n";

  BenchCellMetrics enroll_metrics;
  enroll_metrics.bench = "sweep_concurrency";
  enroll_metrics.scale = scale;
  enroll_metrics.cell = "ingest,enroll";
  enroll_metrics.qps = enroll_qps;
  enroll_metrics.p99_us = insert_p99;
  AppendBenchJson(enroll_metrics);

  BenchCellMetrics mixed_metrics;
  mixed_metrics.bench = "sweep_concurrency";
  mixed_metrics.scale = scale;
  mixed_metrics.cell = "ingest,query_under_enroll";
  mixed_metrics.qps = under_load.qps;
  mixed_metrics.p99_us = under_load.latency.p99_us;
  mixed_metrics.pages_per_query = under_load.pages_per_query();
  AppendBenchJson(mixed_metrics);
}

}  // namespace
}  // namespace gauss::bench

int main() {
  gauss::bench::Run();
  return 0;
}
