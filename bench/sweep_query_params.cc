// Ablation A5 (bench/README.md): query-parameter sweeps — k for k-MLIQ, the
// threshold for TIQ, and the probability-accuracy knob that trades
// certification tightness for page accesses (the paper's "according to
// user's specification of exactness").

#include <cstdio>
#include <iostream>

#include "bench/insertion_builder.h"
#include "data/paper_datasets.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "pfv/pfv_file.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::bench {
namespace {

struct Env {
  InMemoryPageDevice device{kDefaultPageSize};
  ShardedBufferPool pool{&device, 1 << 16, /*num_shards=*/1};
  std::unique_ptr<GaussTree> tree;
  std::unique_ptr<PfvFile> file;
  PaperDataset data;
  std::vector<IdentificationQuery> workload;
};

std::unique_ptr<Env> Build() {
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }
  auto env = std::make_unique<Env>();
  env->data = GeneratePaperDataset2(static_cast<size_t>(100000 * scale));
  env->tree = std::make_unique<GaussTree>(&env->pool, env->data.dataset.dim());
  env->file = std::make_unique<PfvFile>(&env->pool, env->data.dataset.dim());
  InsertionBuild(env->tree.get(), env->data.dataset);
  env->file->AppendAll(env->data.dataset);
  env->workload = GeneratePaperWorkload(env->data, 50);
  return env;
}

void KSweep(Env& env) {
  PrintBanner(std::cout, "A5: k sweep for k-MLIQ (data set 2)");
  Table table({"k", "pages", "objects evaluated", "recall of true id"});
  MliqOptions options;
  options.probability_accuracy = 1e-2;
  for (size_t k : {1, 2, 5, 10, 20, 50}) {
    uint64_t pages = 0, evals = 0;
    size_t hits = 0;
    for (const auto& iq : env.workload) {
      env.pool.Clear();
      env.pool.ResetStats();
      const MliqResult r = QueryMliq(*env.tree, iq.query, k, options);
      pages += env.pool.stats().physical_reads;
      evals += r.stats.objects_evaluated;
      for (const auto& item : r.items) {
        if (item.id == iq.true_id) {
          ++hits;
          break;
        }
      }
    }
    const double n = static_cast<double>(env.workload.size());
    table.AddRow({Table::Int(k), Table::Num(pages / n),
                  Table::Num(evals / n),
                  Table::Pct(100.0 * static_cast<double>(hits) / n)});
  }
  table.Print(std::cout);
}

void ThresholdSweep(Env& env) {
  PrintBanner(std::cout, "A5: threshold sweep for TIQ (data set 2)");
  Table table({"threshold", "pages", "avg results"});
  TiqOptions options;
  options.exact_membership = false;
  for (double theta : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    uint64_t pages = 0;
    size_t results = 0;
    for (const auto& iq : env.workload) {
      env.pool.Clear();
      env.pool.ResetStats();
      results += QueryTiq(*env.tree, iq.query, theta, options).items.size();
      pages += env.pool.stats().physical_reads;
    }
    const double n = static_cast<double>(env.workload.size());
    table.AddRow({Table::Num(theta, 2), Table::Num(pages / n),
                  Table::Num(results / n, 2)});
  }
  table.Print(std::cout);
}

void AccuracySweep(Env& env) {
  PrintBanner(std::cout,
              "A5: probability-accuracy sweep for 1-MLIQ (data set 2)");
  Table table({"accuracy", "pages", "max prob error"});
  for (double accuracy : {1e-1, 1e-2, 1e-3, 1e-4, 1e-6}) {
    MliqOptions options;
    options.probability_accuracy = accuracy;
    uint64_t pages = 0;
    double max_err = 0.0;
    for (const auto& iq : env.workload) {
      env.pool.Clear();
      env.pool.ResetStats();
      const MliqResult r = QueryMliq(*env.tree, iq.query, 1, options);
      pages += env.pool.stats().physical_reads;
      if (!r.items.empty()) {
        max_err = std::max(max_err, r.items[0].probability_error);
      }
    }
    table.AddRow({Table::Num(accuracy, 6),
                  Table::Num(pages / static_cast<double>(env.workload.size())),
                  Table::Num(max_err, 7)});
  }
  table.Print(std::cout);
  std::cout << "expectation: pages rise as the certification tightens; the "
               "phase-1 ranking itself is always exact\n";
}

}  // namespace
}  // namespace gauss::bench

int main() {
  auto env = gauss::bench::Build();
  gauss::bench::KSweep(*env);
  gauss::bench::ThresholdSweep(*env);
  gauss::bench::AccuracySweep(*env);
  return 0;
}
