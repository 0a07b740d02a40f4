// GaussDb demo: a face-identification service under concurrent load.
//
// The offline path enrolls a synthetic gallery of persons into a GaussDb and
// the online path serves a probe stream from a Session: several client
// threads submit batches of MLIQ (who is this?) and TIQ (watchlist: anyone
// above 20%?) queries that the session's threads execute concurrently over
// a shared sharded page cache. A separate latency-sensitive client
// streams single probes through Submit() with a per-query deadline — the
// admission-control path: expired or shed probes come back immediately with
// a non-kOk status instead of silently queueing forever.
//
// Output: identification accuracy plus the service's aggregate stats —
// throughput, latency percentiles, page I/O, and admission-control counts.
//
// Pass --shards=N to partition the gallery over N Gauss-trees served
// scatter-gather through a ShardCoordinator front door (same clients, same
// contracts — answers and admission behavior are independent of sharding).
//
// Pass --dir=PATH to persist the sharded gallery as a multi-device
// directory layout (GaussDb::CreateOnDirectory: PATH/MANIFEST + one
// PATH/shard-NNNN.gauss FilePageDevice per shard) and serve from those
// files — the "gallery larger than one device" deployment. Implies
// --shards=4 unless --shards is given. The directory is left in place, and
// a later `--dir=PATH` run reattaches to it via GaussDb::OpenDirectory
// (skipping enrollment; shard count then comes from the manifest, typed
// open errors are reported) instead of truncating the persisted gallery.
//
// Pass --connect=host:port,... to serve the same clients over *remote*
// shards instead: each endpoint is a gauss_shardd process serving one shard
// file of a gallery persisted by an earlier --dir run, and
// GaussDb::ServeRemote() builds the scatter-gather front door over
// RpcBackends. The batch and streaming clients are byte-for-byte the code
// below — the transport is invisible above the Session surface:
//
//   hostA$ gauss_shardd --file=GALLERY/shard-0000.gauss --port=7001
//   ...
//   front$ query_server --connect=hostA:7001,hostB:7001,...
//
// Pass --enroll-rate=N to enroll new persons *while serving*: the database is
// opened with live ingest enabled (GaussDbOptions::ingest) and a walk-up
// enrollment desk inserts N new persons per second through Session::Insert()
// concurrently with the probe clients above. Inserts land in an in-memory
// delta that serves immediately — no rebuild, no pause in query traffic —
// and a background merge folds the delta into the base tree once it passes
// the merge threshold. kDeltaFull is backpressure, not an error: the desk
// retries after a beat. After the load drains, the demo probes the freshly
// enrolled faces to show they are queryable the moment Insert() returns.
// Remote shards are immutable from the front door, so --enroll-rate does not
// combine with --connect.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/gauss_db.h"
#include "common/random.h"

namespace {

constexpr size_t kPersons = 5000;
constexpr size_t kFeatures = 12;
constexpr size_t kClients = 3;       // concurrent batch submitters
constexpr size_t kBatchesPerClient = 4;
constexpr size_t kProbesPerBatch = 100;
constexpr size_t kStreamedProbes = 200;  // deadline-carrying singles
constexpr double kWatchlistThreshold = 0.2;

// Per-feature measurement noise depending on capture conditions (cf.
// examples/face_identification.cc).
std::vector<double> FeatureSigmas(gauss::Rng& rng) {
  std::vector<double> sigma(kFeatures);
  for (double& s : sigma) {
    s = (0.01 + 0.01 * rng.NextDouble()) * (1.0 + rng.Uniform(0, 8));
  }
  return sigma;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gauss;
  Rng rng(7);

  size_t num_shards = 0;   // 0 = unsharded single tree
  std::string directory;   // non-empty = multi-device directory layout
  std::string connect;     // non-empty = remote shards (gauss_shardd hosts)
  size_t enroll_rate = 0;  // >0 = enroll N persons/s while serving
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      num_shards = static_cast<size_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      directory = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--enroll-rate=", 14) == 0) {
      enroll_rate = static_cast<size_t>(std::atoll(argv[i] + 14));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards=N] [--dir=PATH] "
                   "[--connect=host:port,...] [--enroll-rate=N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!connect.empty() && (num_shards != 0 || !directory.empty())) {
    std::fprintf(stderr,
                 "--connect serves remote shards; it does not combine with "
                 "--shards/--dir\n");
    return 1;
  }
  if (!connect.empty() && enroll_rate > 0) {
    std::fprintf(stderr,
                 "--connect serves remote shards, which cannot enroll from "
                 "here; --enroll-rate needs a local gallery\n");
    return 1;
  }
  if (!directory.empty() && num_shards == 0) {
    num_shards = 4;  // a directory layout is one device per shard
  }

  // True (unobservable) facial geometry per person.
  std::vector<std::vector<double>> true_faces(kPersons,
                                              std::vector<double>(kFeatures));
  for (auto& face : true_faces) {
    for (double& f : face) f = rng.NextDouble();
  }

  ServeOptions serve;
  serve.num_workers = 4;
  serve.cache_pages = 1 << 12;

  // Walk-up enrollment desk: live ingest is opt-in, for every local
  // deployment mode.
  IngestOptions ingest;
  ingest.enabled = enroll_rate > 0;
  ingest.delta_capacity = 1 << 14;
  ingest.merge_threshold = 1 << 10;
  ingest.merge_policy = MergePolicy::kBackground;

  // ---- Offline: enroll the gallery (or reattach/connect to one). ---------
  std::optional<GaussDb> db;
  std::optional<Session> session;
  if (!connect.empty()) {
    // The gallery lives on remote gauss_shardd servers, each serving one
    // shard file persisted by an earlier --dir run of this binary. The
    // enrollment RNG stream must still advance identically so the probe
    // clients below test against the same true faces.
    for (size_t person = 0; person < kPersons; ++person) {
      const std::vector<double> sigma = FeatureSigmas(rng);
      for (size_t f = 0; f < kFeatures; ++f) {
        (void)rng.Gaussian(true_faces[person][f], sigma[f]);
      }
    }
    std::vector<std::string> endpoints;
    for (size_t start = 0; start <= connect.size();) {
      size_t comma = connect.find(',', start);
      if (comma == std::string::npos) comma = connect.size();
      if (comma > start) {
        endpoints.push_back(connect.substr(start, comma - start));
      }
      start = comma + 1;
    }
    ServeResult remote = GaussDb::ServeRemote(endpoints, serve);
    if (!remote.ok()) {
      std::fprintf(stderr, "cannot connect to remote shards: %s\n",
                   remote.error().message.c_str());
      return 1;
    }
    session.emplace(std::move(remote).value());
    std::printf("GaussDb: %zu remote shard server(s) behind a scatter-gather "
                "front door, %zu batch clients + 1 streaming client\n",
                session->num_shards(), kClients);
  } else {
    GaussDbOptions db_options;
    db_options.shards.num_shards = num_shards;  // 0 keeps the single tree
    db_options.ingest = ingest;  // live enrollment iff --enroll-rate given
    const bool reattach = [&] {
      if (directory.empty()) return false;
      std::FILE* manifest = std::fopen((directory + "/MANIFEST").c_str(), "rb");
      if (manifest == nullptr) return false;
      std::fclose(manifest);
      return true;
    }();
    db.emplace([&] {
      if (directory.empty()) {
        return GaussDb::CreateInMemory(kFeatures, db_options);
      }
      if (reattach) {
        // A previous --dir run left a gallery here: serve it instead of
        // truncating it. A damaged directory comes back as a typed error.
        OpenResult reopened = GaussDb::OpenDirectory(directory, db_options);
        if (!reopened.ok()) {
          std::fprintf(stderr, "cannot reattach to %s: %s (%s)\n",
                       directory.c_str(), reopened.error().message.c_str(),
                       OpenErrorCodeName(reopened.error().code));
          std::exit(1);
        }
        return std::move(reopened).value();
      }
      return GaussDb::CreateOnDirectory(directory, kFeatures, db_options);
    }());
    if (reattach) {
      std::printf("reattached to the persisted gallery under %s\n",
                  directory.c_str());
      // The enrollment RNG stream must still advance identically so the
      // probe clients below test against the same true faces.
      for (size_t person = 0; person < kPersons; ++person) {
        const std::vector<double> sigma = FeatureSigmas(rng);
        for (size_t f = 0; f < kFeatures; ++f) {
          (void)rng.Gaussian(true_faces[person][f], sigma[f]);
        }
      }
    } else {
      for (size_t person = 0; person < kPersons; ++person) {
        const std::vector<double> sigma = FeatureSigmas(rng);
        std::vector<double> observed(kFeatures);
        for (size_t f = 0; f < kFeatures; ++f) {
          observed[f] = rng.Gaussian(true_faces[person][f], sigma[f]);
        }
        db->Insert(Pfv(person, observed, sigma));
      }
    }

    // ---- Online: one serving session, shared by every client thread. -----
    session.emplace(db->Serve(serve));

    if (db->per_shard_devices()) {
      std::printf("GaussDb: %zu enrolled persons over %zu shard devices under "
                  "%s, %zu coordinator threads behind a scatter-gather front "
                  "door, %zu batch clients + 1 streaming client\n",
                  db->size(), session->num_shards(), directory.c_str(),
                  session->coordinator_threads(), kClients);
    } else if (db->sharded()) {
      std::printf("GaussDb: %zu enrolled persons over %zu shards, %zu "
                  "coordinator threads behind a scatter-gather front door, "
                  "%zu batch clients + 1 streaming client\n",
                  db->size(), session->num_shards(),
                  session->coordinator_threads(), kClients);
    } else {
      std::printf("GaussDb: %zu enrolled persons, %zu workers, %zu batch "
                  "clients + 1 streaming client\n",
                  db->size(), session->num_workers(), kClients);
    }
  }

  std::atomic<size_t> identified{0};
  std::atomic<size_t> probes_total{0};
  std::atomic<size_t> mliq_probes{0};
  std::atomic<size_t> watchlist_reports{0};
  std::atomic<size_t> shard_errors{0};

  auto client = [&](size_t client_id) {
    Rng client_rng(100 + client_id);
    for (size_t b = 0; b < kBatchesPerClient; ++b) {
      // Each batch probes random enrolled persons under fresh conditions.
      std::vector<size_t> truth(kProbesPerBatch);
      std::vector<Query> batch;
      batch.reserve(kProbesPerBatch);
      for (size_t p = 0; p < kProbesPerBatch; ++p) {
        const size_t person = client_rng.UniformInt(kPersons);
        truth[p] = person;
        const std::vector<double> sigma = FeatureSigmas(client_rng);
        std::vector<double> observed(kFeatures);
        for (size_t f = 0; f < kFeatures; ++f) {
          observed[f] = client_rng.Gaussian(true_faces[person][f], sigma[f]);
        }
        Pfv probe(900000 + p, observed, sigma);
        if (p % 4 == 3) {
          batch.push_back(Query::Tiq(std::move(probe), kWatchlistThreshold));
        } else {
          batch.push_back(Query::Mliq(std::move(probe), /*k=*/1));
        }
      }

      const BatchResult result = session->ExecuteBatch(batch);
      for (size_t p = 0; p < result.responses.size(); ++p) {
        const QueryResponse& resp = result.responses[p];
        probes_total.fetch_add(1, std::memory_order_relaxed);
        if (resp.status == QueryResponse::Status::kShardError) {
          // Remote serving only: a shard connection died — the query failed
          // typed instead of hanging. Count it and move on.
          shard_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (resp.kind == QueryKind::kMliq) {
          mliq_probes.fetch_add(1, std::memory_order_relaxed);
          if (!resp.items.empty() && resp.items[0].id == truth[p]) {
            identified.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          watchlist_reports.fetch_add(resp.items.size(),
                                      std::memory_order_relaxed);
        }
      }
      if (client_id == 0 && b == kBatchesPerClient - 1) {
        std::printf("\nlast batch of client 0:\n%s\n",
                    result.stats.ToString().c_str());
      }
    }
  };

  // A latency-sensitive access-control gate: a probe that cannot *start*
  // executing within 50 ms is rejected (queue full -> shed, budget gone ->
  // expired) and the gate falls back to a secondary check. Submit() + an
  // execution-start deadline gives exactly that contract.
  std::atomic<size_t> streamed_ok{0}, streamed_rejected{0};
  auto streaming_client = [&] {
    Rng stream_rng(999);
    for (size_t p = 0; p < kStreamedProbes; ++p) {
      const size_t person = stream_rng.UniformInt(kPersons);
      const std::vector<double> sigma = FeatureSigmas(stream_rng);
      std::vector<double> observed(kFeatures);
      for (size_t f = 0; f < kFeatures; ++f) {
        observed[f] = stream_rng.Gaussian(true_faces[person][f], sigma[f]);
      }
      auto future = session->Submit(
          Query::Mliq(Pfv(950000 + p, observed, sigma), /*k=*/1)
              .DeadlineAfter(std::chrono::milliseconds(50)));
      const QueryResponse resp = future.get();
      if (resp.status == QueryResponse::Status::kOk) {
        streamed_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        streamed_rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  // The enrollment desk: while the probe clients above hammer the session,
  // enroll brand-new persons at --enroll-rate per second. Insert() returns a
  // typed InsertResult — kRoutedToDelta is success (the person serves from
  // the in-memory delta immediately), kDeltaFull is backpressure while a
  // merge drains the delta (retry after a beat), anything else is a bug in
  // this demo. The desk keeps each enrollee's true face so we can probe
  // them afterwards.
  std::atomic<bool> serving_done{false};
  std::vector<std::vector<double>> enrolled_faces;
  std::vector<uint64_t> enrolled_ids;
  auto enrollment_desk = [&] {
    Rng desk_rng(555);
    const auto interval =
        std::chrono::nanoseconds(uint64_t{1000000000} / enroll_rate);
    auto next_slot = std::chrono::steady_clock::now();
    uint64_t next_id = 1000000;  // well past the offline gallery's ids
    while (!serving_done.load(std::memory_order_relaxed)) {
      std::vector<double> face(kFeatures);
      for (double& f : face) f = desk_rng.NextDouble();
      const std::vector<double> sigma = FeatureSigmas(desk_rng);
      std::vector<double> observed(kFeatures);
      for (size_t f = 0; f < kFeatures; ++f) {
        observed[f] = desk_rng.Gaussian(face[f], sigma[f]);
      }
      InsertResult enrolled = session->Insert(Pfv(next_id, observed, sigma));
      while (enrolled.outcome == InsertOutcome::kDeltaFull &&
             !serving_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        enrolled = session->Insert(Pfv(next_id, observed, sigma));
      }
      if (!enrolled.ok()) break;  // kDeltaFull at shutdown, or a demo bug
      enrolled_faces.push_back(std::move(face));
      enrolled_ids.push_back(next_id);
      ++next_id;
      next_slot += interval;
      std::this_thread::sleep_until(next_slot);
    }
  };

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  clients.emplace_back(streaming_client);
  std::optional<std::thread> desk;
  if (enroll_rate > 0) desk.emplace(enrollment_desk);
  for (auto& t : clients) t.join();
  if (desk) {
    serving_done.store(true, std::memory_order_relaxed);
    desk->join();
  }

  std::printf("\nserved %zu batched probes from %zu clients\n",
              probes_total.load(), kClients);
  std::printf("MLIQ top-1 identification: %zu/%zu correct\n",
              identified.load(), mliq_probes.load());
  std::printf("TIQ watchlist reports: %zu identities above %.0f%%\n",
              watchlist_reports.load(), kWatchlistThreshold * 100);
  if (shard_errors.load() != 0) {
    std::printf("shard errors: %zu probes failed typed\n", shard_errors.load());
  }
  std::printf("streaming gate: %zu answered in budget, %zu shed/expired "
              "(deadline 50 ms)\n",
              streamed_ok.load(), streamed_rejected.load());
  if (enroll_rate > 0) {
    // Every person enrolled during the load must be identifiable right now,
    // whether they still sit in the delta or were merged into the base by a
    // background merge mid-run.
    Rng verify_rng(777);
    size_t found = 0;
    for (size_t i = 0; i < enrolled_ids.size(); ++i) {
      const std::vector<double> sigma = FeatureSigmas(verify_rng);
      std::vector<double> observed(kFeatures);
      for (size_t f = 0; f < kFeatures; ++f) {
        observed[f] = verify_rng.Gaussian(enrolled_faces[i][f], sigma[f]);
      }
      const QueryResponse resp =
          session->Submit(Query::Mliq(Pfv(980000 + i, observed, sigma), 1))
              .get();
      if (resp.status == QueryResponse::Status::kOk && !resp.items.empty() &&
          resp.items[0].id == enrolled_ids[i]) {
        ++found;
      }
    }
    const IngestStats ingest_stats = session->ingest_stats();
    std::printf(
        "enrollment desk: %zu persons enrolled live at %zu/s; %zu/%zu "
        "identified post-enrollment\n",
        enrolled_ids.size(), enroll_rate, found, enrolled_ids.size());
    std::printf(
        "live ingest: epoch %llu, %llu merge(s) completed, %zu still in the "
        "delta, %llu inserts accepted\n",
        static_cast<unsigned long long>(ingest_stats.epoch),
        static_cast<unsigned long long>(ingest_stats.merges_completed),
        ingest_stats.delta_size,
        static_cast<unsigned long long>(ingest_stats.inserts_accepted));
  }
  const IoStats io = session->io_stats();  // summed over per-shard caches
  std::printf("cache(s): %llu logical / %llu physical reads across %zu "
              "serving pool(s)\n",
              static_cast<unsigned long long>(io.logical_reads),
              static_cast<unsigned long long>(io.physical_reads),
              session->num_shards());
  return 0;
}
