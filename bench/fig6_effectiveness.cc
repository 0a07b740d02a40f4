// Reproduces Figure 6 of the paper: precision and recall of the conventional
// nearest-neighbour query on mean vectors versus the k-MLIQ on probabilistic
// feature vectors, at result-set scales x1..x9, on both data sets.
//
// Paper shape to reproduce: MLIQ achieves near-perfect precision and recall
// at x1 (98% / 99%); the NN query starts much lower (42% on data set 1, 61%
// on data set 2); increasing the NN result set raises recall only slowly
// while precision collapses (~ recall / x), so no choice of k compensates
// for ignoring the uncertainty.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"

namespace gauss::bench {
namespace {

void RunDataset(int which, size_t query_count) {
  PrintBanner(std::cout, "Figure 6(" + std::string(which == 1 ? "a" : "b") +
                             "): data set " + std::to_string(which));
  auto env = BuildEnvironment(which, query_count, /*build_xtree=*/false);
  std::printf("objects=%zu dim=%zu queries=%zu\n", env->data.dataset.size(),
              env->data.dataset.dim(), env->workload.size());

  constexpr size_t kMaxScale = 9;
  std::vector<std::vector<uint64_t>> nn_lists, mliq_lists;
  std::vector<uint64_t> truth;
  MliqOptions options;
  options.refine_probabilities = false;  // ranking only
  for (const auto& iq : env->workload) {
    truth.push_back(iq.true_id);
    nn_lists.push_back(env->scan->QueryKnnMeans(iq.query, kMaxScale));
    const MliqResult mliq =
        QueryMliq(*env->tree, iq.query, kMaxScale, options);
    std::vector<uint64_t> ids;
    for (const auto& item : mliq.items) ids.push_back(item.id);
    mliq_lists.push_back(std::move(ids));
  }

  Table table({"scale", "NN precision", "NN recall", "MLIQ precision",
               "MLIQ recall"});
  for (size_t x = 1; x <= kMaxScale; ++x) {
    const PrecisionRecall nn = EvaluateAtScale(nn_lists, truth, x);
    const PrecisionRecall mliq = EvaluateAtScale(mliq_lists, truth, x);
    table.AddRow({"x" + std::to_string(x), Table::Pct(100 * nn.precision),
                  Table::Pct(100 * nn.recall), Table::Pct(100 * mliq.precision),
                  Table::Pct(100 * mliq.recall)});
  }
  table.Print(std::cout);

  const PrecisionRecall nn1 = EvaluateAtScale(nn_lists, truth, 1);
  const PrecisionRecall m1 = EvaluateAtScale(mliq_lists, truth, 1);
  std::printf(
      "summary: MLIQ@x1 %.0f%% vs NN@x1 %.0f%% (paper: %s)\n",
      100 * m1.recall, 100 * nn1.recall,
      which == 1 ? "98% vs 42%" : "99% vs 61%");
}

}  // namespace
}  // namespace gauss::bench

int main() {
  gauss::bench::RunDataset(1, 100);  // paper: 100 queries on data set 1
  gauss::bench::RunDataset(2, 500);  // paper: 500 queries on data set 2
  return 0;
}
