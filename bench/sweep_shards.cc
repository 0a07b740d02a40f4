// Sharded-GaussDb scaling sweep: shard count x worker threads -> QPS,
// p50/p99 latency, logical pages per query. One gallery is built once per
// shard count (partitioning is part of the database, not the session) and
// served through a scatter-gather Session; every cell runs the same mixed
// MLIQ/TIQ workload on a warm cache, and every cell's answers are checked
// against the unsharded single-tree reference — ids and ordering exactly,
// probabilities within the certified error bounds — so the throughput
// numbers can't come from computing something different.
//
// Expectations: pages/query stays flat in the shard count, near one tree's.
// Every shard must be consulted — the Bayes denominator spans the whole
// gallery — but GaussDb cuts its shards by space, and the coordinator's
// seeded Start runs the most promising shard first and ships its real
// answer as a pruning floor, so the other shards stop near their roots
// (service/shard_coordinator.h). QPS scales with workers once the machine
// has cores to give; on a 1-core container all worker columns collapse to
// single-thread throughput. The interesting sharded win is capacity (a
// gallery larger than one device) — the sweep quantifies what that costs
// per query.
//
// The price of a spatial cut is load skew: the shard nearest a query does
// most of its work. A second table shows, per shard count and shard, the
// logical pages per query that shard read and the share of queries it
// seeded, measured through a coordinator wired over the session's own shard
// services.
//
// --devices=dir switches the sharded databases onto the multi-device
// directory layout (GaussDb::CreateOnDirectory under $TMPDIR): one
// FilePageDevice per shard behind the same scatter-gather front door. Every
// cell's answers are then additionally cross-checked BYTE-identically
// against the single-file sharded layout of the same shard count — same
// partitioner, same shard trees, so any divergence is a storage-layer bug —
// before the usual tolerance check against the in-memory single-tree
// reference. Cold-start columns show N independent files being read in
// parallel through their own async engines.
//
// --backend=rpc serves every cell through the distributed transport
// (src/net/): each shard's QueryService is exported by a loopback
// ShardServer and the measured session is a GaussDb::ServeRemote() front
// door speaking the binary wire protocol — Start/Refine/Release frames and
// batched refinement rounds included. Every RPC cell is cross-checked
// BYTE-identically against the in-process coordinator over the very same
// shard services before the usual tolerance check, so the wire path cannot
// quietly compute something different. The QPS delta between
// sweep_shards and sweep_shards_rpc cells is the transport tax on a
// loopback network.
//
// GAUSS_BENCH_SCALE in (0,1] shrinks the dataset for quick runs; the ci
// smoke tests (sweep_shards_smoke, sweep_shards_dir_smoke and
// sweep_shards_rpc_smoke in CMakeLists.txt) run at 0.02 so the cross-checks
// can't rot. When GAUSS_BENCH_JSON names a file, every cell appends its
// metrics as a JSON line for bench/check_regression.py (the CI
// bench-regression guard).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/gauss_db.h"
#include "data/generators.h"
#include "data/workload.h"
#include "eval/report.h"
#include "net/net_error.h"
#include "net/shard_backend.h"
#include "net/shard_server.h"
#include "service/shard_coordinator.h"

namespace gauss::bench {
namespace {

constexpr double kAccuracy = 1e-4;
constexpr double kThreshold = 0.2;

// ids + ordering exact; probabilities within the summed certified
// half-widths (the sharded and single-tree runs refine to the same
// requested accuracy but along different traversals).
bool SameAnswers(const BatchResult& a, const BatchResult& b) {
  if (a.responses.size() != b.responses.size()) return false;
  for (size_t i = 0; i < a.responses.size(); ++i) {
    const auto& x = a.responses[i].items;
    const auto& y = b.responses[i].items;
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].id != y[j].id) return false;
      const double tolerance =
          x[j].probability_error + y[j].probability_error + 1e-12;
      if (std::fabs(x[j].probability - y[j].probability) > tolerance) {
        return false;
      }
    }
  }
  return true;
}

// Byte-level comparison for two runs that share partitioning and tree
// shapes (single-file vs directory layout of the same sharded database):
// the storage layout must be invisible, down to the last bit.
bool BytesIdentical(const BatchResult& a, const BatchResult& b) {
  if (a.responses.size() != b.responses.size()) return false;
  for (size_t i = 0; i < a.responses.size(); ++i) {
    const auto& x = a.responses[i].items;
    const auto& y = b.responses[i].items;
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].id != y[j].id ||
          std::memcmp(&x[j].probability, &y[j].probability,
                      sizeof(double)) != 0 ||
          std::memcmp(&x[j].probability_error, &y[j].probability_error,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// Scratch directory for the --devices=dir layouts; removed afterwards.
std::string MakeScratchDir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string pattern =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/sweep_shards_dir.XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  if (dir == nullptr) {
    std::cout << "ERROR: cannot create scratch directory " << pattern << "\n";
    std::exit(1);
  }
  return dir;
}

void RemoveDirectoryLayout(const std::string& dir, size_t num_shards) {
  for (size_t s = 0; s < num_shards; ++s) {
    char name[40];
    std::snprintf(name, sizeof(name), "shard-%04zu.gauss", s);
    std::remove((dir + "/" + name).c_str());
  }
  std::remove((dir + "/MANIFEST").c_str());
  ::rmdir(dir.c_str());
}

// Per-shard pages/query and seed share of one warm session: the batch runs
// once more through a coordinator wired over the session's shard services,
// so each shard's cache counters and seed count are its own.
void AddShardLoadRows(Session& session, const std::vector<Query>& batch,
                      Table* load) {
  std::vector<std::unique_ptr<InProcessBackend>> backends;
  std::vector<ShardBackend*> pointers;
  for (size_t s = 0; s < session.num_shards(); ++s) {
    backends.push_back(
        std::make_unique<InProcessBackend>(session.shard_service(s)));
    pointers.push_back(backends.back().get());
  }
  std::vector<uint64_t> reads_before;
  for (ShardBackend* backend : pointers) {
    reads_before.push_back(backend->FetchStats().io.logical_reads);
  }
  ShardCoordinator coordinator(pointers);
  coordinator.ExecuteBatch(batch);
  const std::vector<uint64_t> seeds = coordinator.seed_counts();
  const double queries = static_cast<double>(batch.size());
  for (size_t s = 0; s < pointers.size(); ++s) {
    const uint64_t reads =
        pointers[s]->FetchStats().io.logical_reads - reads_before[s];
    load->AddRow({Table::Int(pointers.size()), Table::Int(s),
                  Table::Int(session.shard_tree(s).size()),
                  Table::Num(static_cast<double>(reads) / queries),
                  Table::Pct(100.0 * static_cast<double>(seeds[s]) /
                             queries)});
  }
}

void Run(bool directory_devices, bool rpc_backend) {
  PrintBanner(std::cout,
              rpc_backend
                  ? "Sharded GaussDb sweep (loopback RPC shard backends, "
                    "scatter-gather MLIQ+TIQ, warm cache)"
              : directory_devices
                  ? "Sharded GaussDb sweep (multi-device directory layout, "
                    "scatter-gather MLIQ+TIQ, warm cache)"
                  : "Sharded GaussDb sweep (scatter-gather MLIQ+TIQ, warm "
                    "cache)");
  double scale = 1.0;
  if (const char* env = std::getenv("GAUSS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) scale = s;
  }

  ClusteredDatasetConfig config;
  config.size = static_cast<size_t>(60000 * scale);
  config.dim = 8;
  const PfvDataset dataset = GenerateClusteredDataset(config);

  WorkloadConfig wconfig;
  wconfig.query_count = 256;
  const auto workload = GenerateWorkload(dataset, wconfig);

  std::vector<Query> batch;
  batch.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    if (i % 4 == 3) {
      batch.push_back(Query::Tiq(workload[i].query, kThreshold)
                          .Accuracy(kAccuracy));
    } else {
      batch.push_back(Query::Mliq(workload[i].query, 3).Accuracy(kAccuracy));
    }
  }

  std::cout << "objects: " << dataset.size()
            << "  queries: " << batch.size()
            << "  hardware threads: " << std::thread::hardware_concurrency()
            << "\n\n";

  // Unsharded single-tree reference: the correctness anchor and the
  // 1-shard/1-worker throughput baseline.
  GaussDb reference_db = GaussDb::CreateInMemory(config.dim);
  reference_db.Build(dataset);
  ServeOptions ref_serve;
  ref_serve.num_workers = 1;
  ref_serve.cache_pages = 1 << 15;
  Session ref_session = reference_db.Serve(ref_serve);
  ref_session.ExecuteBatch(batch);  // warm
  const BatchResult reference = ref_session.ExecuteBatch(batch);

  Table table({"shards", "workers", "qps", "p50 us", "p99 us", "pages/query"});
  Table load({"shards", "shard", "objects", "pages/query", "seed share"});
  table.AddRow({"-", Table::Int(1), Table::Num(reference.stats.qps),
                Table::Num(reference.stats.latency.p50_us),
                Table::Num(reference.stats.latency.p99_us),
                Table::Num(reference.stats.pages_per_query())});

  const std::string bench_name = rpc_backend        ? "sweep_shards_rpc"
                                 : directory_devices ? "sweep_shards_dir"
                                                     : "sweep_shards";
  const auto emit_cell = [&](const std::string& cell, const ServiceStats& s) {
    BenchCellMetrics metrics;
    metrics.bench = bench_name;
    metrics.scale = scale;
    metrics.cell = cell;
    metrics.qps = s.qps;
    metrics.p99_us = s.latency.p99_us;
    metrics.pages_per_query = s.pages_per_query();
    AppendBenchJson(metrics);
  };
  emit_cell("reference", reference.stats);

  // The directory layout needs >= 1 shard (one device per shard) and its
  // point is many devices: sweep the multi-file shard counts only.
  const std::vector<size_t> shard_counts =
      directory_devices ? std::vector<size_t>{4, 8}
                        : std::vector<size_t>{1, 2, 4, 8};
  const std::string scratch = directory_devices ? MakeScratchDir() : "";

  for (size_t shards : shard_counts) {
    GaussDbOptions options;
    options.shards.num_shards = shards;

    // Directory mode: the same gallery once per layout — the single-file
    // image is the byte-level cross-check reference (same partitioner, same
    // shard trees; only the pages' physical homes differ).
    const std::string dir_path =
        scratch + "/shards" + std::to_string(shards);
    const std::string file_path = dir_path + ".singlefile";
    GaussDb db = directory_devices
                     ? GaussDb::CreateOnDirectory(dir_path, config.dim, options)
                     : GaussDb::CreateInMemory(config.dim, options);
    db.Build(dataset);
    BatchResult single_file;
    if (directory_devices) {
      GaussDb file_db = GaussDb::CreateOnFile(file_path, config.dim, options);
      file_db.Build(dataset);
      Session session = file_db.Serve(
          {.num_workers = shards, .cache_pages = 1 << 15});
      session.ExecuteBatch(batch);  // warm
      single_file = session.ExecuteBatch(batch);
    }

    for (size_t workers : {1, 4}) {
      ServeOptions serve;
      serve.num_workers = shards * workers;
      serve.cache_pages = 1 << 15;  // sized for the tree: measure
                                    // scatter-gather, not cache misses
      serve.queue_capacity = batch.size();
      Session session = db.Serve(serve);

      session.ExecuteBatch(batch);  // warm the caches and the threads
      BatchResult result = session.ExecuteBatch(batch);

      // RPC mode: export each shard's QueryService through a loopback
      // ShardServer, dial them all from a ServeRemote() front door, and
      // measure the wire path. The in-process result just computed over the
      // same shard services is the byte-level cross-check. (Teardown order:
      // the remote session hangs up before its servers go away.)
      if (workers == 1) AddShardLoadRows(session, batch, &load);

      std::vector<std::unique_ptr<ShardServer>> servers;
      if (rpc_backend) {
        std::vector<std::string> endpoints;
        for (size_t s = 0; s < session.num_shards(); ++s) {
          NetError error;
          std::unique_ptr<ShardServer> server =
              ShardServer::Listen(session.shard_service(s), {}, &error);
          if (server == nullptr) {
            std::cout << "ERROR: ShardServer::Listen: " << error.ToString()
                      << "\n";
            std::exit(1);
          }
          endpoints.push_back("127.0.0.1:" +
                              std::to_string(server->port()));
          servers.push_back(std::move(server));
        }
        ServeResult connected = GaussDb::ServeRemote(endpoints);
        if (!connected.ok()) {
          std::cout << "ERROR: ServeRemote: " << connected.error().ToString()
                    << "\n";
          std::exit(1);
        }
        Session remote = std::move(connected).value();
        remote.ExecuteBatch(batch);  // warm the connections
        BatchResult rpc_result = remote.ExecuteBatch(batch);
        if (!BytesIdentical(rpc_result, result)) {
          std::cout << "ERROR: RPC answers are not byte-identical to the "
                       "in-process coordinator at "
                    << shards << " shards, " << workers << " workers/shard\n";
          std::exit(1);
        }
        result = std::move(rpc_result);
      }

      if (!SameAnswers(result, reference)) {
        std::cout << "ERROR: answers diverged at " << shards << " shards, "
                  << workers << " workers/shard\n";
        std::exit(1);
      }
      if (directory_devices && !BytesIdentical(result, single_file)) {
        std::cout << "ERROR: directory-layout answers are not byte-identical "
                     "to the single-file layout at "
                  << shards << " shards, " << workers << " workers/shard\n";
        std::exit(1);
      }

      const ServiceStats& stats = result.stats;
      table.AddRow({Table::Int(shards), Table::Int(shards * workers),
                    Table::Num(stats.qps), Table::Num(stats.latency.p50_us),
                    Table::Num(stats.latency.p99_us),
                    Table::Num(stats.pages_per_query())});
      emit_cell("shards=" + std::to_string(shards) +
                    ",workers=" + std::to_string(shards * workers),
                stats);
    }
    if (directory_devices) {
      RemoveDirectoryLayout(dir_path, shards);
      std::remove(file_path.c_str());
    }
  }
  if (directory_devices) ::rmdir(scratch.c_str());
  table.Print(std::cout);
  std::cout << "\nper-shard load (pages/query: the shard's logical reads "
               "per query of the batch; seed share: queries it started "
               "first)\n";
  load.Print(std::cout);
  std::cout << "answers of every cell verified against the unsharded "
               "single-tree reference (ids exact, probabilities within "
               "certified bounds)\n";
  if (directory_devices) {
    std::cout << "every directory-layout cell additionally byte-identical to "
                 "the single-file sharded layout of the same shard count\n";
  }
  if (rpc_backend) {
    std::cout << "every RPC cell additionally byte-identical to the "
                 "in-process coordinator over the same shard services\n";
  }
}

}  // namespace
}  // namespace gauss::bench

int main(int argc, char** argv) {
  bool directory_devices = false;
  bool rpc_backend = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--devices=dir") == 0) {
      directory_devices = true;
    } else if (std::strcmp(argv[i], "--devices=single") == 0) {
      directory_devices = false;
    } else if (std::strcmp(argv[i], "--backend=rpc") == 0) {
      rpc_backend = true;
    } else if (std::strcmp(argv[i], "--backend=inprocess") == 0) {
      rpc_backend = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--devices=single|dir] [--backend=inprocess|rpc]\n",
                   argv[0]);
      return 1;
    }
  }
  if (directory_devices && rpc_backend) {
    std::fprintf(stderr,
                 "%s: --devices=dir and --backend=rpc are separate sweeps; "
                 "pick one\n",
                 argv[0]);
    return 1;
  }
  gauss::bench::Run(directory_devices, rpc_backend);
  return 0;
}
