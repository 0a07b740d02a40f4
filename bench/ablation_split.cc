// Ablation A1 (bench/README.md): does the paper's hull-integral split criterion
// actually beat simpler alternatives? Builds the same dataset under the
// three split strategies and compares structure quality and query cost.

#include <cstdio>
#include <iostream>

#include "bench/insertion_builder.h"
#include "data/paper_datasets.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "gausstree/tree_stats.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::bench {
namespace {

const char* StrategyName(SplitStrategy strategy) {
  switch (strategy) {
    case SplitStrategy::kHullIntegral:
      return "hull-integral (paper)";
    case SplitStrategy::kVolume:
      return "parameter-space volume";
    case SplitStrategy::kMuOnly:
      return "mu-axes only";
  }
  return "?";
}

void Run() {
  PrintBanner(std::cout, "Ablation A1: split strategy");
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }
  const PaperDataset data =
      GeneratePaperDataset2(static_cast<size_t>(50000 * scale));
  const auto workload = GeneratePaperWorkload(data, 50);

  Table table({"strategy", "leaf fill", "avg leaf hull-integral",
               "MLIQ pages", "TIQ(0.2) pages"});
  for (SplitStrategy strategy :
       {SplitStrategy::kHullIntegral, SplitStrategy::kVolume,
        SplitStrategy::kMuOnly}) {
    InMemoryPageDevice device(kDefaultPageSize);
    ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
    GaussTreeOptions options;
    options.split_strategy = strategy;
    GaussTree tree(&pool, data.dataset.dim(), options);
    InsertionBuild(&tree, data.dataset);

    const GaussTreeStats stats = tree.ComputeStats();
    const auto profile = ProfileLevels(tree);
    const double leaf_integral = profile.back().avg_hull_integral;

    MliqOptions mliq_options;
    mliq_options.probability_accuracy = 1e-2;
    TiqOptions tiq_options;
    tiq_options.exact_membership = false;
    uint64_t mliq_pages = 0, tiq_pages = 0;
    for (const auto& iq : workload) {
      pool.Clear();
      pool.ResetStats();
      QueryMliq(tree, iq.query, 1, mliq_options);
      mliq_pages += pool.stats().physical_reads;
      pool.Clear();
      pool.ResetStats();
      QueryTiq(tree, iq.query, 0.2, tiq_options);
      tiq_pages += pool.stats().physical_reads;
    }
    table.AddRow({StrategyName(strategy),
                  Table::Pct(100 * stats.avg_leaf_fill),
                  Table::Num(leaf_integral, 3),
                  Table::Num(static_cast<double>(mliq_pages) /
                                 static_cast<double>(workload.size())),
                  Table::Num(static_cast<double>(tiq_pages) /
                                 static_cast<double>(workload.size()))});
  }
  table.Print(std::cout);
  std::cout << "expectation: the paper's criterion yields the most selective "
               "leaves (smallest hull integral) and the fewest page reads\n";
}

}  // namespace
}  // namespace gauss::bench

int main() {
  gauss::bench::Run();
  return 0;
}
