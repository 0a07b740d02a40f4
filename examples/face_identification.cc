// Face identification over a synthetic biometric gallery — the application
// the paper's introduction motivates.
//
// A "gallery" of enrolled persons is built from facial feature vectors whose
// per-feature uncertainty depends on the capture conditions of the
// enrollment photo (rotation, illumination, distance). At identification
// time a new probe image is observed under its own (different) conditions.
// The example compares Euclidean nearest-neighbour identification with the
// Gauss-tree's k-MLIQ, and shows a rank-3 watchlist via TIQ. A final act
// enrolls latecomers through Session::Insert() while the gallery keeps
// serving — the live-ingest path (GaussDbOptions::ingest) — and identifies
// them immediately, no rebuild in between.

#include <cstdio>
#include <vector>

#include "api/gauss_db.h"
#include "common/random.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace {

constexpr size_t kPersons = 2000;
constexpr size_t kFeatures = 12;  // geometric facial features
constexpr size_t kProbes = 200;

// Capture conditions determine which features are measured reliably: e.g.
// face proportions survive rotation, nose breadth does not.
struct CaptureConditions {
  double rotation_penalty;      // inflates features 0..5
  double illumination_penalty;  // inflates features 6..11
};

std::vector<double> FeatureSigmas(const CaptureConditions& cc,
                                  gauss::Rng& rng) {
  std::vector<double> sigma(kFeatures);
  for (size_t f = 0; f < kFeatures; ++f) {
    const double base = 0.01 + 0.01 * rng.NextDouble();
    const double penalty =
        f < kFeatures / 2 ? cc.rotation_penalty : cc.illumination_penalty;
    sigma[f] = base * (1.0 + penalty);
  }
  return sigma;
}

}  // namespace

int main() {
  using namespace gauss;
  Rng rng(2024);

  // True (unobservable) facial geometry per person.
  std::vector<std::vector<double>> true_faces(kPersons,
                                              std::vector<double>(kFeatures));
  for (auto& face : true_faces) {
    for (double& f : face) f = rng.NextDouble();
  }

  // The gallery database, plus a flat pfv file (own storage) for the
  // Euclidean-NN baseline. Live ingest is enabled so persons can still be
  // enrolled after the gallery goes live (the last act below).
  GaussDbOptions db_options;
  db_options.ingest.enabled = true;
  GaussDb db = GaussDb::CreateInMemory(kFeatures, db_options);
  InMemoryPageDevice scan_device(kDefaultPageSize);
  ShardedBufferPool scan_pool(&scan_device, 1 << 14, /*num_shards=*/1);
  PfvFile file(&scan_pool, kFeatures);

  // Enrollment: one observation per person under random conditions, held
  // until Serve() bulk-loads the gallery.
  for (size_t person = 0; person < kPersons; ++person) {
    const CaptureConditions cc{rng.Uniform(0, 8), rng.Uniform(0, 8)};
    const std::vector<double> sigma = FeatureSigmas(cc, rng);
    std::vector<double> observed(kFeatures);
    for (size_t f = 0; f < kFeatures; ++f) {
      observed[f] = rng.Gaussian(true_faces[person][f], sigma[f]);
    }
    const Pfv enrolled(person, observed, sigma);
    const InsertResult added = db.Insert(enrolled);
    if (!added.ok()) {
      std::fprintf(stderr, "enrollment failed (%s): %s\n",
                   InsertOutcomeName(added.outcome), added.message.c_str());
      return 1;
    }
    file.Append(enrolled);
  }
  Session gallery = db.Serve();
  SeqScan scan(&file);

  // Identification probes: re-observations of enrolled persons.
  size_t mliq_correct = 0, nn_correct = 0, watchlist_hits = 0;
  for (size_t probe = 0; probe < kProbes; ++probe) {
    const size_t person = rng.UniformInt(kPersons);
    const CaptureConditions cc{rng.Uniform(0, 8), rng.Uniform(0, 8)};
    const std::vector<double> sigma = FeatureSigmas(cc, rng);
    std::vector<double> observed(kFeatures);
    for (size_t f = 0; f < kFeatures; ++f) {
      observed[f] = rng.Gaussian(true_faces[person][f], sigma[f]);
    }
    const Pfv q(900000 + probe, observed, sigma);

    const QueryResponse mliq = gallery.Submit(Query::Mliq(q, 1)).get();
    if (!mliq.items.empty() && mliq.items[0].id == person) ++mliq_correct;

    const auto nn = scan.QueryKnnMeans(q, 1);
    if (!nn.empty() && nn[0] == person) ++nn_correct;

    // Watchlist semantics: report everyone who could be this probe with at
    // least 5% probability.
    const QueryResponse watchlist = gallery.Submit(Query::Tiq(q, 0.05)).get();
    for (const auto& item : watchlist.items) {
      if (item.id == person) {
        ++watchlist_hits;
        break;
      }
    }
  }

  std::printf("gallery: %zu persons, %zu features, %zu probes\n", kPersons,
              kFeatures, kProbes);
  std::printf("rank-1 identification  — k-MLIQ: %.1f%%   Euclidean NN: %.1f%%\n",
              100.0 * mliq_correct / kProbes, 100.0 * nn_correct / kProbes);
  std::printf("watchlist (P >= 5%%) contains the true person: %.1f%%\n",
              100.0 * watchlist_hits / kProbes);
  std::printf(
      "\nBoth enrollment and probe images carry individual per-feature "
      "uncertainty; the\nprobabilistic model exploits it, plain feature "
      "distance cannot (paper Section 1).\n");

  // Late enrollment: 100 more persons walk up *after* the gallery went
  // live. Session::Insert() routes them into the in-memory delta and they
  // are identifiable the moment the call returns — same MLIQ contract, no
  // rebuild, no serving pause.
  constexpr size_t kLatecomers = 100;
  size_t late_correct = 0;
  for (size_t i = 0; i < kLatecomers; ++i) {
    const uint64_t person = kPersons + i;
    std::vector<double> face(kFeatures);
    for (double& f : face) f = rng.NextDouble();
    const CaptureConditions cc{rng.Uniform(0, 8), rng.Uniform(0, 8)};
    const std::vector<double> sigma = FeatureSigmas(cc, rng);
    std::vector<double> observed(kFeatures);
    for (size_t f = 0; f < kFeatures; ++f) {
      observed[f] = rng.Gaussian(face[f], sigma[f]);
    }
    const InsertResult added = gallery.Insert(Pfv(person, observed, sigma));
    if (!added.ok()) {
      std::fprintf(stderr, "late enrollment failed (%s): %s\n",
                   InsertOutcomeName(added.outcome), added.message.c_str());
      return 1;
    }

    // Probe the latecomer immediately, under fresh capture conditions.
    const CaptureConditions probe_cc{rng.Uniform(0, 8), rng.Uniform(0, 8)};
    const std::vector<double> probe_sigma = FeatureSigmas(probe_cc, rng);
    std::vector<double> probe_observed(kFeatures);
    for (size_t f = 0; f < kFeatures; ++f) {
      probe_observed[f] = rng.Gaussian(face[f], probe_sigma[f]);
    }
    const QueryResponse mliq =
        gallery
            .Submit(Query::Mliq(Pfv(950000 + i, probe_observed, probe_sigma),
                                /*k=*/1))
            .get();
    if (!mliq.items.empty() && mliq.items[0].id == person) ++late_correct;
  }
  const IngestStats ingest = gallery.ingest_stats();
  std::printf(
      "\nlate enrollment while serving: %zu persons, rank-1 re-identified "
      "immediately: %.1f%%\n(%zu in the delta, epoch %llu — see "
      "src/gausstree/README.md for the delta/merge design)\n",
      kLatecomers, 100.0 * late_correct / kLatecomers, ingest.delta_size,
      static_cast<unsigned long long>(ingest.epoch));
  return 0;
}
