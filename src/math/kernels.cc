#include "math/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/cpus.h"
#include "math/kernels_simd.h"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

// The scalar reference backend, the portable transcendentals every backend
// shares, and the runtime dispatch. The SIMD backends live in their own
// translation units (kernels_avx2.cc, kernels_avx512.cc) because they need
// per-file -m flags; the NEON backend compiles here (NEON is baseline on
// aarch64, no extra flags needed).
//
// This file (like all of src/) is compiled with -ffp-contract=off: the
// operation sequences below are the bit-level contract the SIMD lanes
// mirror, and FMA contraction would change their results.

namespace gauss::kernels {

namespace {

// ------------------------- portable log (fdlibm) ---------------------------
//
// The classic table-free Sun fdlibm e_log.c kernel, restructured so the
// main path is branch-free: exponent/mantissa split via one integer
// subtraction (the musl trick: subtracting OFF centers the mantissa in
// [sqrt(1/2), sqrt(2))), then the log(1+f) polynomial in s = f/(2+f).
// Accuracy ~1 ulp. Valid for normal finite positive x; everything else
// (zero, negatives, denormals, inf, NaN) detours through LogSpecial.
// All constants live in kernels_simd.h so the vector lanes cannot drift.

using simd::kLg1;
using simd::kLg2;
using simd::kLg3;
using simd::kLg4;
using simd::kLg5;
using simd::kLg6;
using simd::kLg7;
using simd::kLn2Hi;
using simd::kLn2Lo;
using simd::kLogOff;
using simd::kMaxFinite;
using simd::kMinNormal;

// `kbias` folds the 2^54 pre-scale of denormal inputs back out of the
// exponent (the caller passes -54 after multiplying x by 0x1p54).
double LogMain(double x, int64_t kbias) {
  const int64_t u = std::bit_cast<int64_t>(x);
  const int64_t tmp = u - kLogOff;
  const int64_t k = (tmp >> 52) + kbias;  // arithmetic shift
  const int64_t mbits = u - (tmp & simd::kExpFieldMask);
  const double m = std::bit_cast<double>(mbits);  // in [sqrt(1/2), sqrt(2))
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double ff = f * f;
  const double hfsq = 0.5 * ff;
  const double dk = static_cast<double>(k);
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

double LogSpecial(double x) {
  if (std::isnan(x)) return x + x;  // quiets signaling NaNs, keeps payload
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  if (x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (std::isinf(x)) return x;
  // Denormal: normalize by 2^54, fold the scale back through the exponent.
  return LogMain(x * 0x1p54, -54);
}

// ------------------------- portable exp (fdlibm) ---------------------------
//
// fdlibm e_exp.c: argument reduction r = x - n*ln2 with a hi/lo split of
// ln2, a degree-5 Remez polynomial for the correction term c, the
// reconstruction y = 1 - ((lo - r*c/(2-c)) - hi), then a 2^n exponent
// scale. n comes from round-to-nearest-even (the default FP environment;
// the SIMD lanes use the nearest-even rounding intrinsic, so a process
// running under a changed rounding mode would break bit-identity — nothing
// in this codebase changes it). Accuracy ~1 ulp. The main path covers
// |x| <= 700, where the result and every intermediate stay normal;
// borderline finite inputs take ExpSpecial's two-step scale.

using simd::kExpMainCut;
using simd::kExpP1;
using simd::kExpP2;
using simd::kExpP3;
using simd::kExpP4;
using simd::kExpP5;
using simd::kInvLn2;

using simd::kExpUnderflow;  // < this: +0
constexpr double kExpOverflow = 709.782712893383973096;  // > this: +inf

struct ExpReduced {
  double y;   // exp(r), r = x - n*ln2
  double nd;  // n as a double (integral)
};

ExpReduced ExpCore(double x) {
  const double nd = std::nearbyint(x * kInvLn2);
  const double hi = x - nd * kLn2Hi;
  const double lo = nd * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double c =
      r - t * (kExpP1 +
               t * (kExpP2 + t * (kExpP3 + t * (kExpP4 + t * kExpP5))));
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  return {y, nd};
}

// 2^n for n in [-1022, 1023], built directly as an exponent bit pattern.
double Pow2(int64_t n) {
  return std::bit_cast<double>(static_cast<uint64_t>(n + 1023) << 52);
}

double ExpMain(double x) {
  const ExpReduced red = ExpCore(x);
  // |x| <= 700 keeps n in [-1011, 1011]: the scale and the product are
  // normal, so one rounding at the final multiply.
  const int64_t n = static_cast<int64_t>(red.nd);
  return red.y * Pow2(n);
}

double ExpSpecial(double x) {
  if (std::isnan(x)) return x + x;
  if (x > kExpOverflow) return std::numeric_limits<double>::infinity();
  if (x < kExpUnderflow) return 0.0;
  // Borderline finite: same reduction, but the scale is applied in two
  // normal-range halves so the single final rounding lands correctly in
  // the denormal (or overflow) range.
  const ExpReduced red = ExpCore(x);
  const int64_t n = static_cast<int64_t>(red.nd);
  const int64_t n1 = n >> 1;  // arithmetic: n1 + n2 == n
  const int64_t n2 = n - n1;
  return (red.y * Pow2(n1)) * Pow2(n2);
}

// ----------------------------- scalar backend ------------------------------

void ScalarJoint(const JointBatchArgs& args, double* out_log) {
  detail::JointLogDensityRange(args, 0, args.n, out_log);
}

void ScalarHull(const HullBatchArgs& args, double* out_log_upper,
                double* out_log_lower) {
  detail::HullBoundsRange(args, 0, args.n, out_log_upper, out_log_lower);
}

void ScalarExpShift(const double* log_in, double log_shift, size_t n,
                    double* out) {
  detail::ExpShiftRange(log_in, log_shift, 0, n, out);
}

const KernelBackend kScalarBackend = {"scalar", ScalarJoint, ScalarHull,
                                      ScalarExpShift,
                                      detail::ExtentFoldScalar};

}  // namespace

double PortableLog(double x) {
  // One predicate covers every special: the comparison is false for NaN,
  // for +-0, negatives and denormals (< min normal), and for +inf.
  if (x >= kMinNormal && x <= kMaxFinite) return LogMain(x, 0);
  return LogSpecial(x);
}

double PortableExp(double x) {
  // fabs comparison false for NaN; inf and overflow/underflow-adjacent
  // magnitudes detour so the main path never manufactures a denormal.
  if (std::fabs(x) <= kExpMainCut) return ExpMain(x);
  return ExpSpecial(x);
}

namespace detail {

void JointLogDensityRange(const JointBatchArgs& args, size_t j0, size_t j1,
                          double* out_log) {
  for (size_t j = j0; j < j1; ++j) {
    double acc = 0.0;
    for (size_t i = 0; i < args.dim; ++i) {
      const double sigma = CombineSigma(args.sigma[i * args.stride + j],
                                        args.sigma_q[i], args.policy);
      acc += GaussianLogPdf(args.mu_q[i], args.mu[i * args.stride + j], sigma);
    }
    out_log[j] = acc;
  }
}

void HullBoundsRange(const HullBatchArgs& args, size_t j0, size_t j1,
                     double* out_log_upper, double* out_log_lower) {
  for (size_t j = j0; j < j1; ++j) {
    double upper = 0.0;
    double lower = 0.0;
    for (size_t i = 0; i < args.dim; ++i) {
      DimBounds b;
      b.mu_lo = args.mu_lo[i * args.stride + j];
      b.mu_hi = args.mu_hi[i * args.stride + j];
      b.sigma_lo = args.sigma_lo[i * args.stride + j];
      b.sigma_hi = args.sigma_hi[i * args.stride + j];
      const DimBounds adj =
          QueryAdjustedBounds(b, args.sigma_q[i], args.policy);
      upper += LogUpperHull(args.mu_q[i], adj);
      lower += LogLowerHull(args.mu_q[i], adj);
    }
    out_log_upper[j] = upper;
    out_log_lower[j] = lower;
  }
}

void ExpShiftRange(const double* log_in, double log_shift, size_t j0,
                   size_t j1, double* out) {
  for (size_t j = j0; j < j1; ++j) {
    out[j] = PortableExp(log_in[j] - log_shift);
  }
}

void ExtentFoldScalar(const double* row_lo, const double* row_hi,
                      size_t axes, const uint64_t* side, double* extremes) {
  for (size_t a = 0; a < axes; ++a) {
    const size_t h = (side[a / 64] >> (a % 64)) & 1;
    double* lo = extremes + (2 * a + h) * 2 * axes;
    double* hi = lo + axes;
    for (size_t x = 0; x < axes; ++x) {
      lo[x] = std::min(lo[x], row_lo[x]);
      hi[x] = std::max(hi[x], row_hi[x]);
    }
  }
}

}  // namespace detail

const KernelBackend& ScalarBackend() { return kScalarBackend; }

// SIMD backends: each Get* returns nullptr when its TU was compiled without
// the corresponding instruction set (non-x86 builds, or a toolchain that
// cannot target it). Declared here, defined in kernels_avx2.cc /
// kernels_avx512.cc.
const KernelBackend* GetAvx2Backend();
const KernelBackend* GetAvx512Backend();

#if defined(__aarch64__)
// NEON is baseline on aarch64, so its backend compiles right here with the
// default flags — 2 doubles per vector. Unlike x86's min/max instructions,
// vminq/vmaxq have their own NaN semantics, so MinStd/MaxStd are spelled as
// compare+select, which reproduces std::min/std::max exactly (NaN compares
// false, so the first argument comes through).
namespace {

struct NeonOps {
  using V = float64x2_t;
  using VI = int64x2_t;
  using M = uint64x2_t;  // all-ones lanes where true
  static constexpr size_t kWidth = 2;
  static V Load(const double* p) { return vld1q_f64(p); }
  static void Store(double* p, V v) { vst1q_f64(p, v); }
  // NEON has no masked load/store: the lanes go through a stack vector, and
  // only p[0, count) is copied either way.
  static V LoadPartial(const double* p, size_t count, double fill) {
    double lanes[kWidth] = {fill, fill};
    std::memcpy(lanes, p, count * sizeof(double));
    return vld1q_f64(lanes);
  }
  static void StorePartial(double* p, size_t count, V v) {
    double lanes[kWidth];
    vst1q_f64(lanes, v);
    std::memcpy(p, lanes, count * sizeof(double));
  }
  static V Set1(double x) { return vdupq_n_f64(x); }
  static VI Set1I(int64_t x) { return vdupq_n_s64(x); }
  static V Add(V a, V b) { return vaddq_f64(a, b); }
  static V Sub(V a, V b) { return vsubq_f64(a, b); }
  static V Mul(V a, V b) { return vmulq_f64(a, b); }
  static V Div(V a, V b) { return vdivq_f64(a, b); }
  static V Sqrt(V a) { return vsqrtq_f64(a); }
  static V Abs(V a) { return vabsq_f64(a); }
  static V RoundNearest(V a) { return vrndnq_f64(a); }
  static V MinStd(V a, V b) { return vbslq_f64(vcltq_f64(b, a), b, a); }
  static V MaxStd(V a, V b) { return vbslq_f64(vcltq_f64(a, b), b, a); }
  static M Eq(V a, V b) { return vceqq_f64(a, b); }
  static M Le(V a, V b) { return vcleq_f64(a, b); }
  static M Lt(V a, V b) { return vcltq_f64(a, b); }
  static M Or(M a, M b) { return vorrq_u64(a, b); }
  static bool All(M m) {
    return (vgetq_lane_u64(m, 0) & vgetq_lane_u64(m, 1)) ==
           ~static_cast<uint64_t>(0);
  }
  static V Select(M m, V t, V f) { return vbslq_f64(m, t, f); }
  static VI CastI(V a) { return vreinterpretq_s64_f64(a); }
  static V CastD(VI a) { return vreinterpretq_f64_s64(a); }
  static VI Add64(VI a, VI b) { return vaddq_s64(a, b); }
  static VI Sub64(VI a, VI b) { return vsubq_s64(a, b); }
  static VI And64(VI a, VI b) { return vandq_s64(a, b); }
  static VI Sra52(VI a) { return vshrq_n_s64(a, 52); }
  static VI Shl52(VI a) { return vshlq_n_s64(a, 52); }
  static VI Shr1(VI a) {
    return vreinterpretq_s64_u64(vshrq_n_u64(vreinterpretq_u64_s64(a), 1));
  }
  static V I64ToF64(VI a) { return vcvtq_f64_s64(a); }
  static bool AllInRange(V s) {
    return All(vandq_u64(vcgeq_f64(s, Set1(simd::kMinNormal)),
                              vcleq_f64(s, Set1(simd::kMaxFinite))));
  }
  static bool AllAbsLe700(V x) {
    return All(vcleq_f64(Abs(x), Set1(simd::kExpMainCut)));
  }
  static bool AllNotNan(V x) { return All(vceqq_f64(x, x)); }
};

void NeonJoint(const JointBatchArgs& args, double* out_log) {
  simd::JointBatchImpl<NeonOps>(args, out_log);
}
void NeonHull(const HullBatchArgs& args, double* out_log_upper,
              double* out_log_lower) {
  simd::HullBatchImpl<NeonOps>(args, out_log_upper, out_log_lower);
}
void NeonExpShift(const double* log_in, double log_shift, size_t n,
                  double* out) {
  simd::ExpShiftImpl<NeonOps>(log_in, log_shift, n, out);
}
void NeonExtentFold(const double* row_lo, const double* row_hi, size_t axes,
                    const uint64_t* side, double* extremes) {
  simd::ExtentFoldImpl<NeonOps>(row_lo, row_hi, axes, side, extremes);
}

const KernelBackend kNeonBackend = {"neon", NeonJoint, NeonHull,
                                    NeonExpShift, NeonExtentFold};

}  // namespace

const KernelBackend* GetNeonBackend() { return &kNeonBackend; }
#else
const KernelBackend* GetNeonBackend() { return nullptr; }
#endif

const std::vector<const KernelBackend*>& CompiledBackends() {
  static const std::vector<const KernelBackend*> backends = [] {
    std::vector<const KernelBackend*> list;
    list.push_back(&kScalarBackend);
    if (const KernelBackend* b = GetAvx2Backend()) list.push_back(b);
    if (const KernelBackend* b = GetAvx512Backend()) list.push_back(b);
    if (const KernelBackend* b = GetNeonBackend()) list.push_back(b);
    return list;
  }();
  return backends;
}

bool Runnable(const KernelBackend& backend) {
  const std::string_view name(backend.name);
  if (name == "scalar" || name == "neon") return true;  // baseline ISAs
#if defined(__x86_64__) || defined(__i386__)
  if (name == "avx2") return __builtin_cpu_supports("avx2") != 0;
  if (name == "avx512") {
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0;
  }
#endif
  return false;
}

const KernelBackend& ActiveBackend() {
  static const KernelBackend* active = [] {
    if (ScalarForced()) return &kScalarBackend;
    // Widest runnable backend wins; CompiledBackends() lists scalar first
    // and the SIMD backends in increasing width.
    const KernelBackend* best = &kScalarBackend;
    for (const KernelBackend* b : CompiledBackends()) {
      if (Runnable(*b)) best = b;
    }
    return best;
  }();
  return *active;
}

}  // namespace gauss::kernels
