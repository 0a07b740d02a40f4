// Quickstart: the paper's Figure 1 scenario end to end in ~60 lines.
//
// A database of three facial observations (O1..O3) in a 2-d feature space
// (F1 sensitive to rotation angle, F2 to illumination). Each observation
// carries per-feature uncertainty. A query taken with good rotation but bad
// illumination must identify O3 — even though conventional Euclidean
// similarity on the feature values favours O1.

#include <cstdio>

#include "api/gauss_db.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

int main() {
  using namespace gauss;

  // The probabilistic feature vectors: (id, means, standard deviations).
  const Pfv o1(1, {2.6, 1.6}, {0.15, 0.15});  // good rotation & illumination
  const Pfv o2(2, {1.2, 2.6}, {0.90, 0.90});  // bad rotation & illumination
  const Pfv o3(3, {1.8, 4.2}, {0.80, 0.15});  // bad rotation, good illum.

  // The identification database: GaussDb owns the storage stack (device,
  // caches, Gauss-tree) behind three calls. Insert() reports a typed
  // InsertResult — here each observation is held for the build.
  GaussDb db = GaussDb::CreateInMemory(/*dim=*/2);
  for (const Pfv& v : {o1, o2, o3}) {
    const InsertResult added = db.Insert(v);
    if (!added.ok()) {
      std::fprintf(stderr, "enrollment failed (%s): %s\n",
                   InsertOutcomeName(added.outcome), added.message.c_str());
      return 1;
    }
  }
  // Build -> serve: Serve() bulk-loads the held observations into the
  // Gauss-tree, the same tree Build() of them would write, and serves it.
  // After this the pages are immutable: Insert() would come back as
  // InsertOutcome::kFinalized. (To keep enrolling *while* serving,
  // set GaussDbOptions::ingest.enabled — examples/query_server.cc does.)
  Session session = db.Serve();

  // A flat pfv file for the conventional sequential-scan baseline.
  InMemoryPageDevice scan_device(kDefaultPageSize);
  ShardedBufferPool scan_pool(&scan_device, 64, /*num_shards=*/1);
  PfvFile file(&scan_pool, 2);
  for (const Pfv& v : {o1, o2, o3}) file.Append(v);

  // The query observation: rotation was good (F1 exact, sigma 0.12) but the
  // illumination was bad (F2 uncertain, sigma 0.85).
  const Pfv query(0, {3.05, 3.05}, {0.12, 0.85});

  // Conventional similarity search on the feature values.
  SeqScan scan(&file);
  const auto nn = scan.QueryKnnMeans(query, 3);
  std::printf("Euclidean NN ranking  : O%llu, O%llu, O%llu\n",
              (unsigned long long)nn[0], (unsigned long long)nn[1],
              (unsigned long long)nn[2]);

  // The probabilistic identification query (k-MLIQ).
  const QueryResponse mliq = session.Submit(Query::Mliq(query, 3)).get();
  std::printf("k-MLIQ identification :");
  for (const auto& item : mliq.items) {
    std::printf(" O%llu=%.0f%%", (unsigned long long)item.id,
                100.0 * item.probability);
  }
  std::printf("\n");

  // A threshold identification query: everyone above 12%.
  const QueryResponse tiq = session.Submit(Query::Tiq(query, 0.12)).get();
  std::printf("TIQ (P >= 12%%)        :");
  for (const auto& item : tiq.items) {
    std::printf(" O%llu=%.0f%%", (unsigned long long)item.id,
                100.0 * item.probability);
  }
  std::printf("\n");

  std::printf(
      "\nThe Euclidean method picks O%llu; the Gaussian uncertainty model "
      "identifies O%llu —\nits large F1 uncertainty absorbs the rotation "
      "error, and the query's F2 uncertainty\nabsorbs the illumination "
      "error, matching the paper's Figure 1 intuition.\n",
      (unsigned long long)nn[0], (unsigned long long)mliq.items[0].id);
  return 0;
}
