// Ablation: bulk loading versus repeated insertion — build time, structure
// quality, and query cost on the paper's data set 2. A second table times
// the bulk load at one thread and at every usable CPU; the bench exits
// non-zero unless both write the same device image.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cpus.h"
#include "common/stopwatch.h"
#include "data/paper_datasets.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "gausstree/tree_stats.h"
#include "storage/buffer_pool.h"
#include "storage/page_device.h"

namespace gauss::bench {
namespace {

// Every page of the device, in page-id order.
std::vector<uint8_t> DeviceImage(const PageDevice& device) {
  std::vector<uint8_t> image(device.PageCount() * device.page_size());
  for (PageId id = 0; id < device.PageCount(); ++id) {
    device.Read(id, image.data() + size_t{id} * device.page_size());
  }
  return image;
}

int Run() {
  PrintBanner(std::cout, "Ablation: bulk load vs repeated insertion");
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }
  const PaperDataset data =
      GeneratePaperDataset2(static_cast<size_t>(100000 * scale));
  const auto workload = GeneratePaperWorkload(data, 50);

  Table table({"build", "build s", "nodes", "leaf fill", "leaf hull-int",
               "MLIQ pages", "TIQ(0.2) pages"});
  for (bool bulk : {false, true}) {
    InMemoryPageDevice device(kDefaultPageSize);
    BufferPool pool(&device, 1 << 16);
    GaussTree tree(&pool, data.dataset.dim());
    Stopwatch build;
    if (bulk) {
      tree.BulkLoad(data.dataset);
    } else {
      tree.BulkInsert(data.dataset);
    }
    const double build_seconds = build.ElapsedSeconds();
    tree.Finalize();

    const GaussTreeStats stats = tree.ComputeStats();
    const auto profile = ProfileLevels(tree);

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
    const double n = static_cast<double>(workload.size());
    table.AddRow({bulk ? "BulkLoad (top-down)" : "repeated Insert",
                  Table::Num(build_seconds, 2), Table::Int(stats.node_count),
                  Table::Pct(100 * stats.avg_leaf_fill),
                  Table::Num(profile.back().avg_hull_integral, 3),
                  Table::Num(mliq_pages / n), Table::Num(tiq_pages / n)});
  }
  table.Print(std::cout);
  std::cout << "expectation: bulk loading yields far more selective nodes "
               "(orders of magnitude lower hull-integral measure), cutting "
               "query pages several-fold; the figure benches still build by "
               "insertion for fidelity to the paper's Section 5.3\n";

  // BulkLoad's threads only split the partitioning work: the image must not
  // depend on how many there are.
  const size_t cpus = UsableCpus();
  Table threads_table({"BulkLoad threads", "build s", "pages"});
  std::vector<std::vector<uint8_t>> images;
  for (size_t threads : {size_t{1}, cpus}) {
    InMemoryPageDevice device(kDefaultPageSize);
    BufferPool pool(&device, 1 << 16);
    GaussTree tree(&pool, data.dataset.dim());
    Stopwatch build;
    tree.BulkLoad(data.dataset, threads);
    const double build_seconds = build.ElapsedSeconds();
    tree.Finalize();
    images.push_back(DeviceImage(device));
    threads_table.AddRow({Table::Int(threads), Table::Num(build_seconds, 3),
                          Table::Int(device.PageCount())});
  }
  threads_table.Print(std::cout);
  if (images[0] != images[1]) {
    std::cout << "FAIL: the image built with " << cpus
              << " threads differs from the one-thread image\n";
    return 1;
  }
  std::cout << "images identical at 1 and " << cpus << " threads ("
            << images[0].size() << " bytes)\n";
  return 0;
}

}  // namespace
}  // namespace gauss::bench

int main() { return gauss::bench::Run(); }
