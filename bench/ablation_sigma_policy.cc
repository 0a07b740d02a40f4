// Ablation A4 (bench/README.md): the paper's Lemma 1 is written with a
// plain "+" on the deviation parameter (sigma_v + sigma_q); the
// statistically exact convolution of two Gaussians combines deviations as
// sqrt(sv^2 + sq^2). This bench quantifies how much the choice changes
// (a) identification accuracy and (b) query cost.

#include <cstdio>
#include <iostream>

#include "data/paper_datasets.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::bench {
namespace {

void Run(int which, size_t objects, size_t queries) {
  PrintBanner(std::cout, "Ablation A4: sigma combination policy, data set " +
                             std::to_string(which));
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }
  const PaperDataset data =
      which == 1
          ? GeneratePaperDataset1(static_cast<size_t>(objects * scale))
          : GeneratePaperDataset2(static_cast<size_t>(objects * scale));
  const auto workload = GeneratePaperWorkload(data, queries);

  Table table({"policy", "MLIQ hit rate", "avg P(true|q)", "MLIQ pages",
               "TIQ(0.2) results"});
  for (SigmaPolicy policy :
       {SigmaPolicy::kConvolution, SigmaPolicy::kAdditive}) {
    InMemoryPageDevice device(kDefaultPageSize);
    ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
    GaussTreeOptions options;
    options.sigma_policy = policy;
    GaussTree tree(&pool, data.dataset.dim(), options);
    tree.BulkInsert(data.dataset);
    tree.Finalize();

    MliqOptions mliq_options;
    mliq_options.probability_accuracy = 1e-2;
    TiqOptions tiq_options;
    tiq_options.exact_membership = false;
    size_t hits = 0;
    double prob_sum = 0.0;
    uint64_t pages = 0;
    size_t tiq_results = 0;
    for (const auto& iq : workload) {
      pool.Clear();
      pool.ResetStats();
      const MliqResult r = QueryMliq(tree, iq.query, 1, mliq_options);
      pages += pool.stats().physical_reads;
      if (!r.items.empty() && r.items[0].id == iq.true_id) {
        ++hits;
        prob_sum += r.items[0].probability;
      }
      tiq_results += QueryTiq(tree, iq.query, 0.2, tiq_options).items.size();
    }
    table.AddRow(
        {policy == SigmaPolicy::kConvolution ? "convolution (exact)"
                                             : "additive (paper literal)",
         Table::Pct(100.0 * static_cast<double>(hits) /
                    static_cast<double>(workload.size())),
         Table::Num(hits > 0 ? prob_sum / static_cast<double>(hits) : 0.0, 3),
         Table::Num(static_cast<double>(pages) /
                        static_cast<double>(workload.size())),
         Table::Num(static_cast<double>(tiq_results) /
                        static_cast<double>(workload.size()), 2)});
  }
  table.Print(std::cout);
  std::cout << "expectation: both policies identify nearly equally well "
               "(ranking is monotone-ish in the gap); the additive policy "
               "spreads densities, lowering reported probabilities\n";
}

}  // namespace
}  // namespace gauss::bench

int main() {
  gauss::bench::Run(1, 10987, 50);
  gauss::bench::Run(2, 50000, 50);
  return 0;
}
