// Ablation A2 (bench/README.md): erf-based versus degree-5 sigmoid-polynomial
// evaluation of the hull integral — the paper used the polynomial; this
// bench quantifies accuracy and the (lack of) downstream effect on the tree.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/insertion_builder.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "data/paper_datasets.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tree_stats.h"
#include "math/hull_integral.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::bench {
namespace {

void AccuracyTable() {
  PrintBanner(std::cout, "Ablation A2: hull-integral evaluation method");
  Rng rng(12345);
  double max_abs = 0.0, max_rel = 0.0;
  for (int i = 0; i < 100000; ++i) {
    DimBounds b;
    b.mu_lo = rng.Uniform(-2, 2);
    b.mu_hi = b.mu_lo + rng.Uniform(0, 2);
    b.sigma_lo = rng.Uniform(0.001, 1.0);
    b.sigma_hi = b.sigma_lo + rng.Uniform(0, 1.0);
    const double erf_value = UpperHullIntegral(b, IntegralMethod::kErf);
    const double poly_value =
        UpperHullIntegral(b, IntegralMethod::kSigmoidPoly5);
    const double abs_err = std::fabs(erf_value - poly_value);
    max_abs = std::max(max_abs, abs_err);
    max_rel = std::max(max_rel, abs_err / erf_value);
  }
  std::printf("max abs error over 100k random boxes: %.3e\n", max_abs);
  std::printf("max rel error over 100k random boxes: %.3e\n", max_rel);
}

void ThroughputTable() {
  Rng rng(777);
  std::vector<DimBounds> boxes(4096);
  for (DimBounds& b : boxes) {
    b.mu_lo = rng.Uniform(-2, 2);
    b.mu_hi = b.mu_lo + rng.Uniform(0, 2);
    b.sigma_lo = rng.Uniform(0.001, 1.0);
    b.sigma_hi = b.sigma_lo + rng.Uniform(0, 1.0);
  }
  Table table({"method", "evals/s"});
  for (IntegralMethod method :
       {IntegralMethod::kErf, IntegralMethod::kSigmoidPoly5}) {
    Stopwatch sw;
    double sink = 0.0;
    const int reps = 2000;
    for (int r = 0; r < reps; ++r) {
      for (const DimBounds& b : boxes) sink += UpperHullIntegral(b, method);
    }
    const double secs = sw.ElapsedSeconds();
    table.AddRow({method == IntegralMethod::kErf ? "erf" : "sigmoid-poly5",
                  Table::Num(reps * boxes.size() / secs / 1e6, 1) + "M"});
    if (sink == 12345.0) std::printf("?");  // keep the loop alive
  }
  table.Print(std::cout);
}

void DownstreamTable() {
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }
  const PaperDataset data =
      GeneratePaperDataset2(static_cast<size_t>(30000 * scale));
  const auto workload = GeneratePaperWorkload(data, 30);
  Table table({"method", "leaf hull-integral", "MLIQ pages"});
  for (IntegralMethod method :
       {IntegralMethod::kErf, IntegralMethod::kSigmoidPoly5}) {
    InMemoryPageDevice device(kDefaultPageSize);
    ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
    GaussTreeOptions options;
    options.integral_method = method;
    GaussTree tree(&pool, data.dataset.dim(), options);
    InsertionBuild(&tree, data.dataset);
    const auto profile = ProfileLevels(tree);
    MliqOptions mliq_options;
    mliq_options.probability_accuracy = 1e-2;
    uint64_t pages = 0;
    for (const auto& iq : workload) {
      pool.Clear();
      pool.ResetStats();
      QueryMliq(tree, iq.query, 1, mliq_options);
      pages += pool.stats().physical_reads;
    }
    table.AddRow({method == IntegralMethod::kErf ? "erf" : "sigmoid-poly5",
                  Table::Num(profile.back().avg_hull_integral, 3),
                  Table::Num(static_cast<double>(pages) /
                                 static_cast<double>(workload.size()))});
  }
  table.Print(std::cout);
  std::cout << "expectation: identical trees (split decisions agree), so the "
               "approximation the paper used costs nothing in quality\n";
}

}  // namespace
}  // namespace gauss::bench

int main() {
  gauss::bench::AccuracyTable();
  gauss::bench::ThroughputTable();
  gauss::bench::DownstreamTable();
  return 0;
}
