#ifndef GAUSS_BENCH_BENCH_COMMON_H_
#define GAUSS_BENCH_BENCH_COMMON_H_

// Shared setup for the figure-reproduction benches: builds the three
// competing access methods (Gauss-tree, X-tree on rectangular
// approximations, sequential file) over a paper dataset, all sharing one
// buffer pool so page accounting is uniform.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/paper_datasets.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"
#include "xtree/xtree.h"
#include "xtree/xtree_queries.h"

namespace gauss::bench {

// A fully materialized evaluation environment for one dataset.
struct Environment {
  std::unique_ptr<InMemoryPageDevice> device;
  std::unique_ptr<ShardedBufferPool> pool;
  std::unique_ptr<GaussTree> tree;
  std::unique_ptr<PfvFile> file;
  std::unique_ptr<XTree> xtree;
  std::unique_ptr<SeqScan> scan;
  std::unique_ptr<XTreeQueries> xtree_queries;
  PaperDataset data;
  std::vector<IdentificationQuery> workload;
};

// Builds everything for a paper dataset. `which` is 1 or 2. Respects the
// GAUSS_BENCH_SCALE environment variable (a 0 < s <= 1 multiplier on the
// dataset size) so CI can smoke-test the benches quickly.
inline std::unique_ptr<Environment> BuildEnvironment(int which,
                                                     size_t query_count,
                                                     bool build_xtree = true) {
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    scale = std::atof(env);
    if (scale <= 0.0 || scale > 1.0) scale = 1.0;
  }
  auto env = std::make_unique<Environment>();
  if (which == 1) {
    env->data = GeneratePaperDataset1(
        static_cast<size_t>(10987 * scale));
  } else {
    env->data = GeneratePaperDataset2(
        static_cast<size_t>(100000 * scale));
  }
  const size_t dim = env->data.dataset.dim();
  env->device = std::make_unique<InMemoryPageDevice>(kDefaultPageSize);
  // 50 MB of cache in one LRU stripe, matching the paper's configuration;
  // it is cold-started by the experiment runner.
  env->pool = std::make_unique<ShardedBufferPool>(
      env->device.get(), 50 * 1024 * 1024 / kDefaultPageSize,
      /*num_shards=*/1);
  env->tree = std::make_unique<GaussTree>(env->pool.get(), dim);
  env->file = std::make_unique<PfvFile>(env->pool.get(), dim);
  env->tree->BulkInsert(env->data.dataset);
  env->tree->Finalize();
  env->file->AppendAll(env->data.dataset);
  env->scan = std::make_unique<SeqScan>(env->file.get());
  if (build_xtree) {
    env->xtree = std::make_unique<XTree>(env->pool.get(), dim);
    for (uint32_t i = 0; i < env->data.dataset.size(); ++i) {
      env->xtree->Insert(env->data.dataset[i], i);
    }
    env->xtree->Finalize();
    env->xtree_queries =
        std::make_unique<XTreeQueries>(env->xtree.get(), env->file.get());
  }
  env->workload = GeneratePaperWorkload(env->data, query_count);
  return env;
}

// Disk model used by every figure bench. The raw 2006-era positioning cost
// (~8 ms) applies to worst-case seeks; index pages are allocated in creation
// order and a best-first traversal revisits neighbouring subtrees, so the
// *effective* positioning cost per random index page (short seeks + OS
// readahead + controller caching) is far smaller. 0.1 ms is meant to give
// the paper's relation between the page-access chart and the overall-time
// chart on both datasets; no recorded run checks that (bench/README.md,
// "Disk model").
inline DiskModel BenchDiskModel() {
  DiskModel disk;
  disk.positioning_seconds = 0.0001;
  disk.transfer_mb_per_second = 60.0;
  disk.page_size_bytes = kDefaultPageSize;
  return disk;
}

}  // namespace gauss::bench

#endif  // GAUSS_BENCH_BENCH_COMMON_H_
