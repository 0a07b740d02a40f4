// The bound-pruned delta scan (ScanDelta, net/shard_backend.h) against the
// scan that scores every object (tests/delta_scan_reference.h), bit for bit:
// reference scale, denominator, and every item's id, scaled density and log
// density, across delta sizes, both sigma policies, MLIQ k and density
// floors, TIQ thresholds and denominator floors, duplicate objects and
// probes far from every object. Each case also checks when the scan must
// have scored every object.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/paper_datasets.h"
#include "delta_scan_reference.h"
#include "gausstree/delta_tree.h"
#include "net/shard_backend.h"
#include "service/query.h"

namespace gauss {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<DeltaTree> MakeDelta(const std::vector<Pfv>& objects,
                                     size_t n) {
  auto delta = std::make_shared<DeltaTree>(objects.front().dim(),
                                           std::max<size_t>(n, 1));
  for (size_t i = 0; i < n; ++i) EXPECT_TRUE(delta->Append(objects[i]));
  return delta;
}

// Scans `delta`'s first n objects both ways and expects the same bits.
DeltaScanStats ExpectSameAnswer(const DeltaTree& delta, size_t n,
                                const Query& query, SigmaPolicy policy,
                                const std::string& what) {
  ShardPartial got;
  const DeltaScanStats stats = ScanDelta(delta, n, query, policy, &got);
  const ShardPartial want = test::FullDeltaScan(delta, n, query, policy);
  EXPECT_TRUE(test::SamePartial(got, want))
      << what << ": log_ref " << got.log_ref << " vs " << want.log_ref
      << ", denominator " << got.denominator_lo << " vs "
      << want.denominator_lo << ", items " << got.items.size() << " vs "
      << want.items.size();
  EXPECT_LE(stats.scored, n) << what;
  if (stats.full) {
    EXPECT_EQ(stats.scored, n) << what;
  }
  return stats;
}

Query MliqWithFloor(const Pfv& probe, size_t k, double floor_log) {
  MliqOptions options;
  options.density_floor_log = floor_log;
  return Query::Mliq(probe, k, options);
}

Query TiqWithFloor(const Pfv& probe, double threshold, double den_floor) {
  TiqOptions options;
  options.denominator_floor = den_floor;
  return Query::Tiq(probe, threshold, options);
}

// Runs the whole query matrix for one probe over `delta`'s first n objects;
// returns how many scans scored fewer objects than the delta holds.
size_t RunMatrix(const DeltaTree& delta, size_t n, const Pfv& probe,
                 SigmaPolicy policy, const std::string& where) {
  size_t pruned = 0;
  // Floors taken from the exact densities: the median object's (so some
  // object ties the floor) and one above every object.
  double median_floor = 0.0;
  double above_all = 0.0;
  if (n > 0) {
    const ShardPartial all =
        test::FullDeltaScan(delta, n, Query::Mliq(probe, n), policy);
    median_floor = all.items[n / 2].log_density;
    above_all = all.items.front().log_density + 1.0;
  }
  for (const size_t k : {size_t{1}, size_t{5}, size_t{600}, n + 1}) {
    for (const double floor_log : {-kInf, median_floor, above_all}) {
      const std::string what = where + " mliq k=" + std::to_string(k) +
                               " floor=" + std::to_string(floor_log);
      const DeltaScanStats stats = ExpectSameAnswer(
          delta, n, MliqWithFloor(probe, k, floor_log), policy, what);
      pruned += stats.scored < n;
      // Fewer than k objects exist, or none reaches the floor: an unscored
      // zero-mass object could be an item, so every object was scored.
      if (k > n || floor_log == above_all) {
        EXPECT_TRUE(stats.full) << what;
      }
    }
  }
  // The smallest positive threshold keeps every object of nonzero mass,
  // subnormal ones included.
  for (const double threshold :
       {0.0, std::numeric_limits<double>::denorm_min(), 1e-300, 0.2, 0.8}) {
    for (const double den_floor : {0.0, 2.5}) {
      const std::string what = where + " tiq threshold=" +
                               std::to_string(threshold) +
                               " den_floor=" + std::to_string(den_floor);
      const DeltaScanStats stats = ExpectSameAnswer(
          delta, n, TiqWithFloor(probe, threshold, den_floor), policy, what);
      pruned += stats.scored < n;
      // A zero threshold keeps zero-mass candidates.
      if (threshold == 0.0) {
        EXPECT_TRUE(stats.full) << what;
      }
    }
  }
  return pruned;
}

const char* PolicyName(SigmaPolicy policy) {
  return policy == SigmaPolicy::kAdditive ? "additive" : "convolution";
}

// Data set 2 objects as the delta, probes from the e2e-style pool: the
// paper's workload over a base whose first objects are the delta (sources
// inside the delta) and over a disjoint base (sources outside it).
TEST(DeltaScanTest, PrunedScanMatchesFullScanOnPaperData) {
  const PaperDataset data = GeneratePaperDataset2(4096);
  const std::vector<Pfv>& objects = data.dataset.objects();
  std::vector<Pfv> probes;
  for (const IdentificationQuery& q : GeneratePaperWorkload(data, 6)) {
    probes.push_back(q.query);
  }
  const PaperDataset other = GeneratePaperDataset2(4096 + 512);
  const std::vector<IdentificationQuery> outside =
      GeneratePaperWorkload(other, 64, /*seed=*/5);
  for (const IdentificationQuery& q : outside) {
    if (q.true_id >= 4096) probes.push_back(q.query);
    if (probes.size() >= 9) break;
  }

  size_t pruned_large = 0;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{63}, size_t{64}, size_t{65},
                         size_t{536}, size_t{4096}}) {
    const std::shared_ptr<DeltaTree> delta = MakeDelta(objects, n);
    for (const SigmaPolicy policy :
         {SigmaPolicy::kConvolution, SigmaPolicy::kAdditive}) {
      for (size_t p = 0; p < probes.size(); ++p) {
        const std::string where = std::string(PolicyName(policy)) +
                                  " n=" + std::to_string(n) +
                                  " probe=" + std::to_string(p);
        if (n == 0) {
          ShardPartial got;
          const DeltaScanStats stats =
              ScanDelta(*delta, 0, Query::Mliq(probes[p], 1), policy, &got);
          EXPECT_EQ(stats.scored, 0u);
          EXPECT_TRUE(test::SamePartial(
              got, test::FullDeltaScan(*delta, 0, Query::Mliq(probes[p], 1),
                                       policy)));
          continue;
        }
        const size_t pruned = RunMatrix(*delta, n, probes[p], policy, where);
        if (n == 1) {
          EXPECT_EQ(pruned, 0u) << where;
        }
        if (n >= 536) pruned_large += pruned;
      }
    }
  }
  // The bound does cut work on the sizes live ingest runs at.
  EXPECT_GT(pruned_large, 0u);
}

// Random objects whose sigmas span six decades, and means spread far wider
// than them: the bound is loosest here.
TEST(DeltaScanTest, PrunedScanMatchesFullScanOnMixedScales) {
  constexpr size_t kDim = 4;
  Rng rng(71);
  std::vector<Pfv> objects;
  for (uint64_t i = 0; i < 600; ++i) {
    std::vector<double> mu(kDim), sigma(kDim);
    for (double& m : mu) m = rng.Uniform(-50, 50);
    for (double& s : sigma) s = std::pow(10.0, rng.Uniform(-3, 3));
    objects.emplace_back(1000 + i, std::move(mu), std::move(sigma));
  }
  std::vector<Pfv> probes = {objects[3], objects[599]};
  for (int p = 0; p < 4; ++p) {
    std::vector<double> mu(kDim), sigma(kDim);
    for (double& m : mu) m = rng.Uniform(-60, 60);
    for (double& s : sigma) s = std::pow(10.0, rng.Uniform(-2, 1));
    probes.emplace_back(0, std::move(mu), std::move(sigma));
  }
  for (const size_t n : {size_t{9}, size_t{65}, size_t{600}}) {
    const std::shared_ptr<DeltaTree> delta = MakeDelta(objects, n);
    for (const SigmaPolicy policy :
         {SigmaPolicy::kConvolution, SigmaPolicy::kAdditive}) {
      for (size_t p = 0; p < probes.size(); ++p) {
        RunMatrix(*delta, n, probes[p], policy,
                  std::string("mixed ") + PolicyName(policy) +
                      " n=" + std::to_string(n) + " probe=" +
                      std::to_string(p));
      }
    }
  }
}

// Every object enrolled three times in a row: equal densities must keep
// index order through the top-k, the Kahan sum and the TIQ filter.
TEST(DeltaScanTest, DuplicateObjectsKeepIndexOrder) {
  const PaperDataset data = GeneratePaperDataset2(200);
  std::vector<Pfv> objects;
  for (const Pfv& pfv : data.dataset.objects()) {
    for (uint64_t copy = 0; copy < 3; ++copy) {
      Pfv dup = pfv;
      dup.id = pfv.id * 10 + copy;
      objects.push_back(std::move(dup));
    }
  }
  const std::shared_ptr<DeltaTree> delta = MakeDelta(objects, objects.size());
  for (const SigmaPolicy policy :
       {SigmaPolicy::kConvolution, SigmaPolicy::kAdditive}) {
    for (const size_t source : {size_t{0}, size_t{100}, size_t{199}}) {
      const Pfv& probe = data.dataset.objects()[source];
      RunMatrix(*delta, objects.size(), probe, policy,
                std::string("duplicates ") + PolicyName(policy) +
                    " source=" + std::to_string(source));
      // The top three are the source's copies, in enrollment order.
      ShardPartial got;
      ScanDelta(*delta, objects.size(), Query::Mliq(probe, 3), policy, &got);
      ASSERT_EQ(got.items.size(), 3u);
      for (uint64_t copy = 0; copy < 3; ++copy) {
        EXPECT_EQ(got.items[copy].id, probe.id * 10 + copy);
      }
    }
  }
}

// Probes far from every object: every absolute density underflows, and
// only the reference scale keeps mass. Near enough for the rounding
// argument the scan still prunes; past it (|log density| of order 1e20) it
// scores every object.
TEST(DeltaScanTest, FarProbesMatchAndFallBackBeyondTheRoundingArgument) {
  const PaperDataset data = GeneratePaperDataset2(536);
  const std::vector<Pfv>& objects = data.dataset.objects();
  const std::shared_ptr<DeltaTree> delta = MakeDelta(objects, objects.size());
  const size_t dim = objects.front().dim();
  for (const SigmaPolicy policy :
       {SigmaPolicy::kConvolution, SigmaPolicy::kAdditive}) {
    for (const double offset : {30.0, 1e4, 1e12}) {
      const Pfv probe(0, std::vector<double>(dim, offset),
                      std::vector<double>(dim, 1e-2));
      const std::string where = std::string("far ") + PolicyName(policy) +
                                " offset=" + std::to_string(offset);
      RunMatrix(*delta, objects.size(), probe, policy, where);
      ShardPartial got;
      const DeltaScanStats stats = ScanDelta(
          *delta, objects.size(), Query::Mliq(probe, 1), policy, &got);
      EXPECT_EQ(stats.full, offset > 1e6) << where;
      ASSERT_EQ(got.items.size(), 1u);
      EXPECT_EQ(got.items[0].scaled_density, 1.0);
      EXPECT_LT(got.log_ref, -700.0);
    }
  }
}

// DeltaBackend::Start is ScanDelta over the size it snapshots, and a
// refine round answers the stored exact denominator.
TEST(DeltaScanTest, BackendStartIsTheScan) {
  const PaperDataset data = GeneratePaperDataset2(536);
  const std::shared_ptr<DeltaTree> delta =
      MakeDelta(data.dataset.objects(), 536);
  DeltaBackend backend(delta, SigmaPolicy::kConvolution);
  const std::vector<IdentificationQuery> probes =
      GeneratePaperWorkload(data, 4);
  uint64_t handle = 1;
  for (const IdentificationQuery& q : probes) {
    for (const Query& query :
         {Query::Mliq(q.query, 1), Query::Tiq(q.query, 0.2)}) {
      const ShardBackend::StartResult started =
          backend.Start(handle, query).get();
      ASSERT_TRUE(started.error.ok());
      EXPECT_TRUE(test::SamePartial(
          started.partial,
          test::FullDeltaScan(*delta, 536, query, SigmaPolicy::kConvolution)));
      const ShardBackend::RefineResult refined =
          backend.Refine({{handle, 0.0}}).get();
      ASSERT_TRUE(refined.error.ok());
      ASSERT_EQ(refined.updates.size(), 1u);
      EXPECT_TRUE(test::SameBits(refined.updates[0].denominator_lo,
                                 started.partial.denominator_lo));
      EXPECT_EQ(refined.updates[0].objects_evaluated, 536u);
      backend.Release({handle++});
    }
  }
}

}  // namespace
}  // namespace gauss
