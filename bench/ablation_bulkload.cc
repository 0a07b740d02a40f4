// Ablation: bulk loading versus repeated insertion — build time, structure
// quality, and query cost on the paper's data set 2. A second table times
// the bulk load at one thread and at every usable CPU, and a 4-shard
// GaussDb::Build, whose shards load side by side, on every usable CPU and
// on one; each row splits its loads into their phases (leaf partition,
// leaf pages, upper levels). The bench exits non-zero unless each pair
// writes the same device image.

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/gauss_db.h"
#include "common/cpus.h"
#include "common/stopwatch.h"
#include "data/paper_datasets.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "gausstree/tree_stats.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

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
    ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
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

  // Neither BulkLoad's threads nor a sharded Build's side-by-side loads may
  // change the image.
  const size_t cpus = UsableCpus();
  Table threads_table({"build", "CPUs", "build s", "partition s", "leaves s",
                       "upper s", "pages"});
  const auto phase_row = [&](const std::string& name, size_t used,
                             const std::string& seconds,
                             const GaussTree::BulkLoadTimes& times,
                             size_t pages) {
    threads_table.AddRow({name, Table::Int(used), seconds,
                          Table::Num(times.partition_s, 3),
                          Table::Num(times.leaves_s, 3),
                          Table::Num(times.upper_s, 3), Table::Int(pages)});
  };
  std::vector<std::vector<uint8_t>> images;
  for (size_t threads : {size_t{1}, cpus}) {
    InMemoryPageDevice device(kDefaultPageSize);
    ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
    GaussTree tree(&pool, data.dataset.dim());
    Stopwatch build;
    tree.BulkLoad(data.dataset, threads);
    const double build_seconds = build.ElapsedSeconds();
    tree.Finalize();
    images.push_back(DeviceImage(device));
    phase_row("BulkLoad", threads, Table::Num(build_seconds, 3),
              tree.bulk_load_times(), device.PageCount());
  }

  // A 4-shard Build on every usable CPU, then confined to one; one row per
  // shard load, after the Build's own row.
  constexpr size_t kShards = 4;
  const auto sharded = [&](size_t used) {
    GaussDbOptions options;
    options.shards.num_shards = kShards;
    GaussDb db = GaussDb::CreateInMemory(data.dataset.dim(), options);
    Stopwatch build;
    db.Build(data.dataset);
    const double build_seconds = build.ElapsedSeconds();
    threads_table.AddRow({"4-shard Build", Table::Int(used),
                          Table::Num(build_seconds, 3), "", "", "",
                          Table::Int(db.device().PageCount())});
    for (size_t s = 0; s < kShards; ++s) {
      const GaussTree& tree = *db.build_tree(s);
      phase_row("  shard " + std::to_string(s), used, "",
                tree.bulk_load_times(), tree.store().pages().size());
    }
    return DeviceImage(db.device());
  };
  const std::vector<uint8_t> all_cpus = sharded(cpus);
  std::vector<uint8_t> one_cpu;
  std::thread([&] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    int first = 0;
    while (!CPU_ISSET(first, &allowed)) ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    sched_setaffinity(0, sizeof(one), &one);
    one_cpu = sharded(UsableCpus());
  }).join();
  threads_table.Print(std::cout);
  if (images[0] != images[1]) {
    std::cout << "FAIL: the image built with " << cpus
              << " threads differs from the one-thread image\n";
    return 1;
  }
  if (all_cpus != one_cpu) {
    std::cout << "FAIL: the 4-shard image built on " << cpus
              << " CPUs differs from the one built on one CPU\n";
    return 1;
  }
  std::cout << "images identical at 1 and " << cpus << " threads ("
            << images[0].size() << " bytes), and 4-shard images identical "
            << "on " << cpus << " CPUs and on one (" << all_cpus.size()
            << " bytes)\n";
  return 0;
}

}  // namespace
}  // namespace gauss::bench

int main() { return gauss::bench::Run(); }
