// Sensor-network track re-identification with heteroscedastic sensors.
//
// A field of sensors of different grades measures moving emitters; each
// measurement's uncertainty depends on the sensor grade and on the distance
// between sensor and emitter. The database stores one probabilistic feature
// vector per (emitter, measurement-station) sighting; a later sighting from
// a different station must be matched to the same emitter. This exercises
// exactly the paper's setting: "the circumstances in which a given data
// object is transformed into a feature vector may strongly vary."

#include <cmath>
#include <cstdio>
#include <vector>

#include "api/gauss_db.h"
#include "common/random.h"

namespace {

constexpr size_t kEmitters = 5000;
constexpr size_t kSignature = 8;  // RF signature features per emitter
constexpr size_t kResightings = 300;

// Sensor grades: better grades measure with lower noise floors.
constexpr double kGradeNoise[] = {0.002, 0.006, 0.015};

}  // namespace

int main() {
  using namespace gauss;
  Rng rng(99);

  // Ground-truth emitter signatures.
  std::vector<std::vector<double>> signatures(kEmitters,
                                              std::vector<double>(kSignature));
  for (auto& s : signatures) {
    for (double& v : s) v = rng.NextDouble();
  }

  // Live ingest stays on: a sensor field never stops — emitters that come
  // online mid-operation are enrolled while the track database serves.
  GaussDbOptions db_options;
  db_options.ingest.enabled = true;
  GaussDb db = GaussDb::CreateInMemory(kSignature, db_options);

  // One enrollment sighting per emitter, from a random-grade sensor at a
  // random range (noise grows with range; some channels fade more).
  auto observe = [&](const std::vector<double>& truth, uint64_t id) {
    const double* grade = &kGradeNoise[rng.UniformInt(3)];
    const double range_factor = 1.0 + 2.0 * rng.NextDouble();
    std::vector<double> mu(kSignature), sigma(kSignature);
    for (size_t c = 0; c < kSignature; ++c) {
      const double fade = 1.0 + 0.5 * rng.NextDouble();  // per-channel fading
      sigma[c] = *grade * range_factor * fade;
      mu[c] = rng.Gaussian(truth[c], sigma[c]);
    }
    return Pfv(id, std::move(mu), std::move(sigma));
  };

  // Held until Serve(), which bulk-loads them into the track database.
  for (size_t e = 0; e < kEmitters; ++e) {
    const InsertResult added = db.Insert(observe(signatures[e], e));
    if (!added.ok()) {
      std::fprintf(stderr, "enrollment failed (%s): %s\n",
                   InsertOutcomeName(added.outcome), added.message.c_str());
      return 1;
    }
  }
  Session track_db = db.Serve();

  // Re-sightings from different sensors; match them back.
  size_t rank1 = 0, confident = 0, ambiguous = 0;
  uint64_t objects_evaluated = 0;
  for (size_t s = 0; s < kResightings; ++s) {
    const size_t emitter = rng.UniformInt(kEmitters);
    const Pfv probe = observe(signatures[emitter], 700000 + s);

    const QueryResponse top = track_db.Submit(Query::Mliq(probe, 3)).get();
    objects_evaluated += top.stats.objects_evaluated;
    if (!top.items.empty() && top.items[0].id == emitter) ++rank1;

    // Operational decision rule: accept the match only when one track owns
    // at least 50% of the identification probability.
    if (!top.items.empty() && top.items[0].probability >= 0.5) {
      ++confident;
    } else {
      // Otherwise inspect all plausible tracks (P >= 10%).
      const QueryResponse plausible =
          track_db.Submit(Query::Tiq(probe, 0.10)).get();
      ambiguous += plausible.items.size() > 1 ? 1 : 0;
    }
  }

  std::printf("track database: %zu emitters, %zu-channel signatures\n",
              kEmitters, kSignature);
  std::printf("re-sightings: %zu, rank-1 match rate: %.1f%%\n", kResightings,
              100.0 * rank1 / kResightings);
  std::printf("confident matches (P >= 50%%): %.1f%%, ambiguous cases with "
              ">1 plausible track: %.1f%%\n",
              100.0 * confident / kResightings,
              100.0 * ambiguous / kResightings);
  std::printf("avg exact density evaluations per query: %.0f of %zu stored\n",
              static_cast<double>(objects_evaluated) / kResightings,
              kEmitters);

  // New emitters come online mid-operation. Each first sighting is enrolled
  // through the live session — Insert() returns a typed InsertResult and the
  // track serves from the in-memory delta immediately — and the next
  // sighting from a different sensor must re-acquire it.
  constexpr size_t kNewEmitters = 50;
  size_t reacquired = 0;
  for (size_t n = 0; n < kNewEmitters; ++n) {
    std::vector<double> signature(kSignature);
    for (double& v : signature) v = rng.NextDouble();
    const uint64_t track_id = kEmitters + n;
    const InsertResult added = track_db.Insert(observe(signature, track_id));
    if (!added.ok()) {
      std::fprintf(stderr, "new-track enrollment failed (%s): %s\n",
                   InsertOutcomeName(added.outcome), added.message.c_str());
      return 1;
    }
    const Pfv resight = observe(signature, 800000 + n);
    const QueryResponse top = track_db.Submit(Query::Mliq(resight, 1)).get();
    if (!top.items.empty() && top.items[0].id == track_id) ++reacquired;
  }
  std::printf(
      "new emitters enrolled while tracking: %zu, re-acquired by the next "
      "sensor: %.1f%% (delta holds %zu tracks)\n",
      kNewEmitters, 100.0 * reacquired / kNewEmitters,
      track_db.ingest_stats().delta_size);
  return 0;
}
