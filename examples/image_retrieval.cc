// Content-based image retrieval on color histograms — the paper's data set 1
// scenario, using the full evaluation pipeline: the histogram dataset
// surrogate, the paper's query protocol, and all three access methods
// (Gauss-tree, X-tree on rectangular approximations, sequential scan).

#include <cstdio>

#include "api/gauss_db.h"
#include "data/paper_datasets.h"
#include "gausstree/tree_stats.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"
#include "xtree/xtree.h"
#include "xtree/xtree_queries.h"

#include <iostream>

int main() {
  using namespace gauss;

  // 4000 27-bin color histograms with per-dimension base uncertainty
  // (smaller than the full benchmark for a snappy example).
  const PaperDataset data = GeneratePaperDataset1(4000);
  const size_t dim = data.dataset.dim();

  // The identification database. Build() bulk-loads (top-down hull-integral
  // partitioning — distinctly more selective than repeated insertion, see
  // bench/ablation_bulkload) and finalizes in one call.
  GaussDb db = GaussDb::CreateInMemory(dim);
  db.Build(data.dataset);
  Session session = db.Serve();

  // The competing access methods (X-tree on rectangular approximations,
  // sequential scan) on their own storage stack.
  InMemoryPageDevice device(kDefaultPageSize);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  PfvFile file(&pool, dim);
  XTree xtree(&pool, dim);
  file.AppendAll(data.dataset);
  for (uint32_t i = 0; i < data.dataset.size(); ++i) {
    xtree.Insert(data.dataset[i], i);
  }
  xtree.Finalize();
  SeqScan scan(&file);
  XTreeQueries xq(&xtree, &file);

  PrintTreeSummary(session.tree(), std::cout);

  // "Find the image this (re-photographed, differently lit) picture shows."
  const auto workload = GeneratePaperWorkload(data, 60);
  size_t tree_hits = 0, xtree_hits = 0, nn_hits = 0;
  uint64_t tree_pages = 0, xtree_pages = 0;
  for (const auto& iq : workload) {
    // Cold-start the caches per query, matching the paper's protocol.
    session.cache().Clear();
    session.cache().ResetStats();
    const QueryResponse g =
        session.Submit(Query::Mliq(iq.query, 1).Accuracy(1e-2)).get();
    tree_pages += session.cache().stats().physical_reads;
    if (!g.items.empty() && g.items[0].id == iq.true_id) ++tree_hits;

    pool.Clear();
    pool.ResetStats();
    const MliqResult x = xq.QueryMliq(iq.query, 1);
    xtree_pages += pool.stats().physical_reads;
    if (!x.items.empty() && x.items[0].id == iq.true_id) ++xtree_hits;

    const auto nn = scan.QueryKnnMeans(iq.query, 1);
    if (!nn.empty() && nn[0] == iq.true_id) ++nn_hits;
  }

  const double n = static_cast<double>(workload.size());
  std::printf("\nretrieval accuracy over %zu queries:\n", workload.size());
  std::printf("  Gauss-tree MLIQ          : %.1f%%  (%.0f pages/query)\n",
              100.0 * tree_hits / n, tree_pages / n);
  std::printf("  X-tree approx + refine   : %.1f%%  (%.0f pages/query)\n",
              100.0 * xtree_hits / n, xtree_pages / n);
  std::printf("  Euclidean NN on means    : %.1f%%  (full scan)\n",
              100.0 * nn_hits / n);
  std::printf("  sequential file          : %zu pages/query\n",
              file.page_count());

  // This catalog is static: once Serve() finalized it, the pages are
  // immutable, and a late Insert() comes back as a typed refusal instead of
  // aborting the process. Catalogs that must grow while serving enable
  // GaussDbOptions::ingest (see examples/face_identification.cc).
  const InsertResult late = db.Insert(data.dataset[0]);
  std::printf("\nlate Insert() on the static catalog: refused typed as "
              "\"%s\"\n  (%s)\n",
              InsertOutcomeName(late.outcome), late.message.c_str());
  return 0;
}
