// Ablation A6 (DESIGN.md): buffer-pool behaviour — cold-per-query (the
// paper's configuration) versus warm cache across a query batch, and the
// effect of shrinking the pool below the working set.

#include <cstdio>
#include <iostream>

#include "data/paper_datasets.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "pfv/pfv_file.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::bench {
namespace {

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

  InMemoryPageDevice device(kDefaultPageSize);
  MliqOptions options;
  options.probability_accuracy = 1e-2;

  Table table({"pool size (pages)", "policy", "physical pages/query",
               "logical pages/query"});
  for (size_t pool_pages : {64, 256, 1024, 6400}) {
    for (bool cold_per_query : {true, false}) {
      ShardedBufferPool pool(&device, pool_pages, /*num_shards=*/1);
      GaussTree tree(&pool, data.dataset.dim());
      tree.BulkInsert(data.dataset);
      tree.Finalize();

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
      table.AddRow({Table::Int(pool_pages),
                    cold_per_query ? "cold per query" : "warm batch",
                    Table::Num(physical / n), Table::Num(logical / n)});
    }
  }
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
