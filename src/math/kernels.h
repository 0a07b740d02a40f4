#ifndef GAUSS_MATH_KERNELS_H_
#define GAUSS_MATH_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/gaussian.h"
#include "math/hull.h"
#include "math/sigma_policy.h"

// Batch scoring kernels for the node-level query hot path: one query pfv
// against all entries of one node per call, over an SoA (structure-of-
// arrays) view of the node, runtime-dispatched across SIMD backends.
//
// The contract (documented in src/math/README.md, enforced by
// tests/kernel_test.cc): every compiled backend is BIT-IDENTICAL to the
// scalar reference backend on every input. The scalar reference, in turn,
// is the repo's existing scalar math (GaussianLogPdf / LogUpperHull /
// LogLowerHull looped over entries), which is what the seq-scan oracles,
// the shard-coordinator sketch planning, and the delta scans also execute —
// so answers cannot depend on which backend a machine dispatches to.
//
// Bit-identity across scalar and SIMD is only achievable with transcendental
// functions whose operation sequence is explicit and lane-mirrorable, so the
// kernels use PortableLog/PortableExp (fdlibm-style branch-free polynomial
// evaluations, defined in kernels.cc) instead of libm's log/exp, and every
// translation unit of ours compiles with -ffp-contract=off so the compiler
// cannot contract a*b+c into an FMA in one place but not another. Values
// may differ from libm by ~1-2 ulp; they do not differ between backends.
namespace gauss::kernels {

// Widest vector width (doubles) any backend uses. A plane stride may be
// anything >= n: node pages use n itself, a DeltaTree its capacity, the
// delta scan's gathered survivors their count (net/shard_backend.cc), and
// the kernel tests pad with PadEntries. Kernels never READ past n (see the
// concurrency note on JointBatchArgs).
inline constexpr size_t kMaxLanes = 8;

inline constexpr size_t PadEntries(size_t n) {
  return (n + kMaxLanes - 1) / kMaxLanes * kMaxLanes;
}

// One batch joint-density evaluation (paper Lemma 1, summed over dim): a
// query (mu_q, sigma_q) against n entries stored as dim mu-planes and dim
// sigma-planes of `stride` doubles each:
//   entry j's dimension i lives at mu[i * stride + j] / sigma[i * stride + j].
//
// Concurrency contract: kernels read ONLY plane elements [0, n) — never the
// padding up to `stride` — because DeltaTree's writer concurrently fills
// slot n while readers scan the published prefix [0, n). A full-width block
// is used while j + width <= n; the tail is one masked partial block whose
// loads and stores stop at n.
struct JointBatchArgs {
  const double* mu = nullptr;       // dim planes of `stride` doubles
  const double* sigma = nullptr;    // dim planes of `stride` doubles
  size_t stride = 0;                // >= n; plane i starts at i * stride
  size_t n = 0;                     // entries to score
  size_t dim = 0;
  const double* mu_q = nullptr;     // dim doubles
  const double* sigma_q = nullptr;  // dim doubles
  SigmaPolicy policy = SigmaPolicy::kConvolution;
};

// One batch hull-bound evaluation (paper Lemmas 2/3 on the query-adjusted
// bounds, summed over dim): the query against n inner-node child MBRs
// stored as four plane groups (mu_lo, mu_hi, sigma_lo, sigma_hi), each dim
// planes of `stride` doubles. Same layout and concurrency contract as
// JointBatchArgs.
//
// Precondition (inherited from the hull functions' domain, DimBounds::
// Valid()): every entry/dimension satisfies mu_lo <= mu_hi and
// 0 < sigma_lo <= sigma_hi — the invariant ComputeBounds establishes for
// every finalized node. The bit-identity contract holds on that domain
// (plus NaN anywhere, which every backend routes through the scalar
// reference); on inverted bounds the branchy scalar hull and the branchless
// SIMD clamp legitimately diverge, so such inputs are out of contract.
struct HullBatchArgs {
  const double* mu_lo = nullptr;
  const double* mu_hi = nullptr;
  const double* sigma_lo = nullptr;
  const double* sigma_hi = nullptr;
  size_t stride = 0;
  size_t n = 0;
  size_t dim = 0;
  const double* mu_q = nullptr;
  const double* sigma_q = nullptr;
  SigmaPolicy policy = SigmaPolicy::kConvolution;
};

// One dispatchable backend. Function pointers rather than virtuals: the
// table is static data, and the active backend is resolved once.
struct KernelBackend {
  const char* name = "";  // "scalar", "avx2", "avx512", "neon"

  // out_log[j] = joint log density of the query against entry j.
  void (*joint_log_density)(const JointBatchArgs& args, double* out_log);

  // out_log_upper[j] / out_log_lower[j] = joint log upper/lower hull of the
  // query against child MBR j.
  void (*hull_bounds)(const HullBatchArgs& args, double* out_log_upper,
                      double* out_log_lower);

  // out[j] = PortableExp(log_in[j] - log_shift): rebasing log scores into a
  // traversal's reference scale (exp(log - log_ref) in [0, 1]).
  void (*exp_shift)(const double* log_in, double log_shift, size_t n,
                    double* out);

  // The bulk load's split scan (gausstree/bulk_load.cc): folds one item's
  // extents row_lo[0, axes) and row_hi[0, axes) into half h of every
  // candidate axis a < axes, where h is bit a of the item's side mask
  // (side[a / 64] >> (a % 64) & 1):
  //   lo = extremes + (2a + h) * 2 * axes, hi = lo + axes,
  //   lo[x] = std::min(lo[x], row_lo[x]), hi[x] = std::max(hi[x], row_hi[x]).
  // Only min and max, with std::min/std::max's operand order, so every
  // backend leaves the scalar loop's bits, even which of two signed zeros
  // or NaNs survives.
  void (*extent_fold)(const double* row_lo, const double* row_hi,
                      size_t axes, const uint64_t* side, double* extremes);
};

// The always-compiled reference backend (plain scalar loops over the
// existing per-entry math).
const KernelBackend& ScalarBackend();

// Every backend compiled into this binary, scalar first. A compiled backend
// may still not be runnable on this CPU (an AVX-512 build on an AVX2-only
// machine) — check Runnable() before calling it directly.
const std::vector<const KernelBackend*>& CompiledBackends();
bool Runnable(const KernelBackend& backend);

// The backend queries run on: the widest compiled backend this CPU supports,
// unless the environment sets GAUSS_FORCE_SCALAR (any value but "0"), which
// pins the scalar reference — the CI lane that keeps it from rotting.
// Resolved once per process.
const KernelBackend& ActiveBackend();

// Entry points the query path calls; they dispatch to ActiveBackend().
inline void JointLogDensityBatch(const JointBatchArgs& args, double* out_log) {
  ActiveBackend().joint_log_density(args, out_log);
}
inline void HullIntegralBoundsBatch(const HullBatchArgs& args,
                                    double* out_log_upper,
                                    double* out_log_lower) {
  ActiveBackend().hull_bounds(args, out_log_upper, out_log_lower);
}
inline void ExpShiftBatch(const double* log_in, double log_shift, size_t n,
                          double* out) {
  ActiveBackend().exp_shift(log_in, log_shift, n, out);
}

inline void ExtentFold(const double* row_lo, const double* row_hi,
                       size_t axes, const uint64_t* side, double* extremes) {
  ActiveBackend().extent_fold(row_lo, row_hi, axes, side, extremes);
}

// Portable transcendentals (kernels.cc): branch-free-in-the-main-path
// fdlibm-style log/exp whose operation sequence the SIMD backends mirror
// op for op. Within ~1-2 ulp of a correctly rounded result over the full
// double range, with IEEE special-case semantics (log: +-0 -> -inf,
// negative -> NaN, +inf -> +inf, NaN propagates; exp: overflow -> +inf,
// underflow -> +0 through gradual denormals, NaN propagates).
double PortableLog(double x);
double PortableExp(double x);

// log N(x; mu, sigma) with the portable log — the shared per-dimension
// term of every kernel above AND of the scalar GaussianLogPdf (gaussian.cc
// delegates here), which is what makes tree answers independent of the
// dispatched backend. Inline so each TU (all compiled with
// -ffp-contract=off) evaluates the identical operation sequence.
inline double PortableGaussLogPdf(double x, double mu, double sigma) {
  const double z = (x - mu) / sigma;
  const double zz = z * z;
  return (-0.5 * zz - PortableLog(sigma)) - kLogSqrt2Pi;
}

namespace detail {

// Scalar reference ranges over [j0, j1) of a batch — the fallback of every
// SIMD block (full or partial) whose lanes leave the main path, and the
// whole body of the scalar backend. Implemented as
// loops over the legacy scalar functions (GaussianLogPdf, LogUpperHull,
// LogLowerHull), so "bit-identical to scalar" means bit-identical to what
// the rest of the system computes.
void JointLogDensityRange(const JointBatchArgs& args, size_t j0, size_t j1,
                          double* out_log);
void HullBoundsRange(const HullBatchArgs& args, size_t j0, size_t j1,
                     double* out_log_upper, double* out_log_lower);
void ExpShiftRange(const double* log_in, double log_shift, size_t j0,
                   size_t j1, double* out);
// The whole scalar extent_fold: the loop of the contract above.
void ExtentFoldScalar(const double* row_lo, const double* row_hi,
                      size_t axes, const uint64_t* side, double* extremes);

}  // namespace detail

}  // namespace gauss::kernels

#endif  // GAUSS_MATH_KERNELS_H_
