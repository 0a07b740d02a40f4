// Ablation A6 (bench/README.md): buffer-pool behaviour — cold-per-query (the
// paper's configuration) versus warm cache across a query batch, the effect
// of shrinking the pool below the working set, and the served shape.
//
// The served cell is the e2e `tree_file` setting on the bench's data: a
// bulk-loaded tree served behind the default striping of a 256-page pool,
// one worker, the probes in a fixed order in the Figure 7 mix, warm from a
// cold start. One thread and a fixed order make its physical reads repeat
// exactly, so they measure the pool's eviction policy.
//
// With GAUSS_BENCH_JSON set, every cell appends its physical and logical
// pages per query for bench/check_regression.py.

#include <cstdio>
#include <iostream>
#include <string>

#include "api/gauss_db.h"
#include "bench/insertion_builder.h"
#include "data/paper_datasets.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "pfv/pfv_file.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::bench {
namespace {

void EmitCell(double scale, const std::string& cell, double physical,
              double logical) {
  BenchCellMetrics metrics;
  metrics.bench = "sweep_cache";
  metrics.scale = scale;
  metrics.cell = cell;
  metrics.pages_per_query = logical;
  metrics.physical_pages_per_query = physical;
  AppendBenchJson(metrics);
}

// Figure 7 mix by index: half 1-MLIQ at accuracy 1e-2, a quarter TIQ P=0.8
// and a quarter TIQ P=0.2, both with the paper's lazy membership rule.
Query Figure7Probe(const Pfv& pfv, size_t index) {
  switch (index % 4) {
    case 0:
    case 2:
      return Query::Mliq(pfv, 1).Accuracy(1e-2);
    case 1:
      return Query::Tiq(pfv, 0.8).ExactMembership(false);
    default:
      return Query::Tiq(pfv, 0.2).ExactMembership(false);
  }
}

void Run() {
  PrintBanner(std::cout, "Ablation A6: cache policy and pool size (1-MLIQ)");
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }
  const PaperDataset data =
      GeneratePaperDataset2(static_cast<size_t>(100000 * scale));
  const auto workload = GeneratePaperWorkload(data, 50);

  MliqOptions options;
  options.probability_accuracy = 1e-2;

  Table table({"pool size (pages)", "policy", "physical pages/query",
               "logical pages/query"});
  for (size_t pool_pages : {64, 256, 1024, 6400}) {
    for (bool cold_per_query : {true, false}) {
      // Every cell builds its own tree, so every cell gets its own device:
      // a shared one would end up holding all eight images.
      InMemoryPageDevice device(kDefaultPageSize);
      ShardedBufferPool pool(&device, pool_pages, /*num_shards=*/1);
      GaussTree tree(&pool, data.dataset.dim());
      InsertionBuild(&tree, data.dataset);

      pool.Clear();
      pool.ResetStats();
      uint64_t physical = 0, logical = 0;
      for (const auto& iq : workload) {
        if (cold_per_query) pool.Clear();
        const IoStats before = pool.stats();
        QueryMliq(tree, iq.query, 1, options);
        const IoStats delta = pool.stats() - before;
        physical += delta.physical_reads;
        logical += delta.logical_reads;
      }
      const double n = static_cast<double>(workload.size());
      const char* policy = cold_per_query ? "cold per query" : "warm batch";
      table.AddRow({Table::Int(pool_pages), policy, Table::Num(physical / n),
                    Table::Num(logical / n)});
      EmitCell(scale,
               "pool=" + std::to_string(pool_pages) +
                   (cold_per_query ? ",cold" : ",warm"),
               physical / n, logical / n);
    }
  }

  // The served shape: bulk load, then a one-worker session over a 256-page
  // pool with the default striping, which starts empty.
  constexpr size_t kServedPages = 256;
  GaussDb db = GaussDb::CreateInMemory(data.dataset.dim());
  db.Build(data.dataset);
  ServeOptions serve;
  serve.num_workers = 1;
  serve.cache_pages = kServedPages;
  Session session = db.Serve(serve);
  const IoStats before = session.io_stats();
  for (size_t i = 0; i < workload.size(); ++i) {
    session.Submit(Figure7Probe(workload[i].query, i)).get();
  }
  const IoStats delta = session.io_stats() - before;
  const double n = static_cast<double>(workload.size());
  const double physical = static_cast<double>(delta.physical_reads) / n;
  const double logical = static_cast<double>(delta.logical_reads) / n;
  table.AddRow({Table::Int(kServedPages), "served (Figure 7 mix)",
                Table::Num(physical), Table::Num(logical)});
  EmitCell(scale, "served,pool=" + std::to_string(kServedPages), physical,
           logical);

  table.Print(std::cout);
  std::cout << "expectation: a warm pool absorbs the hot upper levels of the "
               "tree; once the pool holds the working set, physical reads "
               "collapse while logical reads are unchanged\n";
}

}  // namespace
}  // namespace gauss::bench

int main() {
  gauss::bench::Run();
  return 0;
}
