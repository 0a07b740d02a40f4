#ifndef GAUSS_TESTS_DELTA_SCAN_REFERENCE_H_
#define GAUSS_TESTS_DELTA_SCAN_REFERENCE_H_

// The delta scan that scores every object exactly, written the plain way:
// one batch kernel call over the whole prefix, push every candidate, stable
// sort. ScanDelta (net/shard_backend.h) must answer bit for bit like it;
// the differential tests and micro_kernels' delta_scan cell check that.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/log_sum_exp.h"
#include "gausstree/delta_tree.h"
#include "math/kernels.h"
#include "net/shard_backend.h"
#include "service/query.h"

namespace gauss::test {

inline ShardPartial FullDeltaScan(const DeltaTree& delta, size_t n,
                                  const Query& query, SigmaPolicy policy) {
  ShardPartial partial;
  partial.tree_size = n;
  if (n == 0) return partial;
  std::vector<double> log_density(n);
  kernels::JointBatchArgs args;
  args.mu = delta.mu_planes();
  args.sigma = delta.sigma_planes();
  args.stride = delta.plane_stride();
  args.n = n;
  args.dim = delta.dim();
  args.mu_q = query.pfv().mu.data();
  args.sigma_q = query.pfv().sigma.data();
  args.policy = policy;
  kernels::JointLogDensityBatch(args, log_density.data());
  double log_ref = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) log_ref = std::max(log_ref, log_density[i]);
  partial.log_ref = log_ref;

  KahanSum denominator;
  std::vector<double> scaled(n);
  kernels::ExpShiftBatch(log_density.data(), log_ref, n, scaled.data());
  for (size_t i = 0; i < n; ++i) denominator.Add(scaled[i]);
  partial.denominator_lo = denominator.Value();
  partial.denominator_hi = denominator.Value();
  partial.exhausted = true;
  partial.objects_evaluated = n;

  if (query.kind() == QueryKind::kMliq) {
    const double floor_log = query.mliq_options().density_floor_log;
    for (size_t i = 0; i < n; ++i) {
      if (log_density[i] < floor_log) continue;
      partial.items.push_back({delta.ids()[i], scaled[i], log_density[i]});
    }
    std::stable_sort(partial.items.begin(), partial.items.end(),
                     [](const ScoredObject& a, const ScoredObject& b) {
                       return a.scaled_density > b.scaled_density;
                     });
    if (partial.items.size() > query.k()) partial.items.resize(query.k());
  } else {
    const double den_floor =
        std::max(denominator.Value(), query.tiq_options().denominator_floor);
    for (size_t i = 0; i < n; ++i) {
      const double prob_hi =
          den_floor > 0.0 ? std::min(1.0, scaled[i] / den_floor) : 1.0;
      if (prob_hi < query.threshold()) continue;
      partial.items.push_back({delta.ids()[i], scaled[i], log_density[i]});
    }
  }
  return partial;
}

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Exact equality of two partial answers: every counter, and the raw bits of
// every double.
inline bool SamePartial(const ShardPartial& a, const ShardPartial& b) {
  if (!SameBits(a.log_ref, b.log_ref) || a.tree_size != b.tree_size ||
      !SameBits(a.denominator_lo, b.denominator_lo) ||
      !SameBits(a.denominator_hi, b.denominator_hi) ||
      a.exhausted != b.exhausted || a.nodes_visited != b.nodes_visited ||
      a.leaf_nodes_visited != b.leaf_nodes_visited ||
      a.objects_evaluated != b.objects_evaluated ||
      a.items.size() != b.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].id != b.items[i].id ||
        !SameBits(a.items[i].scaled_density, b.items[i].scaled_density) ||
        !SameBits(a.items[i].log_density, b.items[i].log_density)) {
      return false;
    }
  }
  return true;
}

}  // namespace gauss::test

#endif  // GAUSS_TESTS_DELTA_SCAN_REFERENCE_H_
