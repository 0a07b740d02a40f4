#ifndef GAUSS_MATH_KERNELS_SIMD_H_
#define GAUSS_MATH_KERNELS_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "math/kernels.h"

// INTERNAL header: the width-generic bodies of the batch kernels, shared by
// every SIMD backend (kernels_avx2.cc, kernels_avx512.cc, the NEON section
// of kernels.cc), plus the constant tables the scalar transcendentals in
// kernels.cc use — one definition site so a constant cannot drift between
// the scalar reference and a vector lane. Not part of the public API; only
// kernel translation units include this.
//
// Each backend supplies an Ops policy struct:
//
//   struct Ops {
//     using V  = <vector of kWidth doubles>;
//     using VI = <vector of kWidth int64s, same register width>;
//     using M  = <per-lane predicate of a V comparison>;
//     static constexpr size_t kWidth;
//     // lane-wise IEEE ops (identical rounding to the scalar op):
//     Load, Store, Set1, Add, Sub, Mul, Div, Sqrt, Abs, RoundNearest
//     // partial-block memory ops, 0 < count < kWidth: LoadPartial reads
//     // p[0, count) and fills the other lanes with `fill`; StorePartial
//     // writes p[0, count). Neither touches p[count] or beyond:
//     LoadPartial(p, count, fill), StorePartial(p, count, v)
//     // std-semantics min/max: MinStd(a,b) == std::min(a,b) and
//     // MaxStd(a,b) == std::max(a,b) PER LANE, including which NaN operand
//     // comes through (on x86 that is the same instruction with the operand
//     // order swapped; NEON needs compare+select):
//     MinStd, MaxStd
//     // lane predicates: Eq(a,b) is a == b, Le(a,b) a <= b, Lt(a,b) a < b
//     // (all false on NaN), Or, All, and Select(m, t, f) == m ? t : f per
//     // lane:
//     Eq, Le, Lt, Or, All, Select
//     // integer lane ops for exponent surgery (Shr1 is a logical shift
//     // right by one bit):
//     Set1I, CastI, CastD, Add64, Sub64, And64, Sra52, Shl52, Shr1, I64ToF64
//     // whole-vector predicates (scalar bool, so every fallback decision is
//     // made per block, never per lane):
//     AllInRange   — every lane in [kMinNormal, kMaxFinite] (false on NaN)
//     AllAbsLe700  — every lane has |x| <= 700 (false on NaN)
//     AllNotNan    — no lane is NaN
//   };
//
// Bit-identity strategy: the vector code executes the scalar MAIN paths
// (LogMain/ExpMain in kernels.cc), mirrored operation for operation, plus
// one special path, ExpSpecial's underflow band (below). Before using a
// block's result it proves a mirrored path was valid for every lane
// (AllInRange on each log input, every exp input <= 700 and not NaN, final
// AllNotNan on the accumulators); any failure reruns the whole block through
// detail::*Range — the scalar reference itself — so the other special
// values get the scalar answers by construction, not by re-implementation.
//
// Partial blocks: the last n % kWidth entries run the same vector body as
// one more block, loading only lanes [j, n). The lanes past n hold a benign
// in-domain fill (sigma 1, mu 0, log_shift for exp_shift), so the block's
// checks above reflect only the real lanes, and a failed check reruns just
// [j, n) through the scalar reference.
//
// Concurrency contract (see JointBatchArgs in kernels.h): no load below ever
// touches plane elements >= n. Full blocks satisfy j + kWidth <= n, and the
// partial block's masked loads and stores stop at n.
namespace gauss::kernels::simd {

// --- fdlibm log constants (see LogMain in kernels.cc for the derivation) ---
inline constexpr int64_t kLogOff = 0x3fe6955500000000LL;
inline constexpr int64_t kExpFieldMask =
    static_cast<int64_t>(0xfff0000000000000ULL);
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;

// --- fdlibm exp constants (see ExpCore in kernels.cc) ---
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;
inline constexpr double kExpP1 = 1.66666666666666019037e-01;
inline constexpr double kExpP2 = -2.77777777770155933842e-03;
inline constexpr double kExpP3 = 6.61375632143793436117e-05;
inline constexpr double kExpP4 = -1.65339022054652515390e-06;
inline constexpr double kExpP5 = 4.13813679705723846039e-08;
inline constexpr double kExpMainCut = 700.0;
inline constexpr double kExpUnderflow = -745.133219101941108420;  // < : +0

// --- main-path domain of the portable log ---
inline constexpr double kMinNormal = 2.2250738585072014e-308;  // 0x1p-1022
inline constexpr double kMaxFinite = 1.7976931348623157e+308;  // DBL_MAX

// log(x), every lane assumed normal finite positive (caller checked
// AllInRange). Mirrors LogMain(x, 0) in kernels.cc op for op.
template <typename O>
inline typename O::V VLogMain(typename O::V x) {
  using V = typename O::V;
  using VI = typename O::VI;
  const VI u = O::CastI(x);
  const VI tmp = O::Sub64(u, O::Set1I(kLogOff));
  const VI k = O::Sra52(tmp);
  const VI mbits = O::Sub64(u, O::And64(tmp, O::Set1I(kExpFieldMask)));
  const V m = O::CastD(mbits);
  const V f = O::Sub(m, O::Set1(1.0));
  const V s = O::Div(f, O::Add(O::Set1(2.0), f));
  const V z = O::Mul(s, s);
  const V w = O::Mul(z, z);
  const V t1 = O::Mul(
      w, O::Add(O::Set1(kLg2),
                O::Mul(w, O::Add(O::Set1(kLg4), O::Mul(w, O::Set1(kLg6))))));
  const V t2 = O::Mul(
      z,
      O::Add(O::Set1(kLg1),
             O::Mul(w, O::Add(O::Set1(kLg3),
                              O::Mul(w, O::Add(O::Set1(kLg5),
                                               O::Mul(w, O::Set1(kLg7))))))));
  const V r = O::Add(t2, t1);
  const V ff = O::Mul(f, f);
  const V hfsq = O::Mul(O::Set1(0.5), ff);
  const V dk = O::I64ToF64(k);
  // dk*ln2_hi - ((hfsq - (s*(hfsq+r) + dk*ln2_lo)) - f)
  const V inner = O::Add(O::Mul(s, O::Add(hfsq, r)), O::Mul(dk, O::Set1(kLn2Lo)));
  return O::Sub(O::Mul(dk, O::Set1(kLn2Hi)), O::Sub(O::Sub(hfsq, inner), f));
}

// ExpCore in kernels.cc per lane: returns y = exp(r), r = x - n*ln2, and
// sets *u to bit_cast(nd + 0x1.8p52), which carries n in its low bits (two's
// complement). 2^n is then Pow2Bits(u): ((u + 1023) << 52) equals
// ((n + 1023) << 52) because the magic constant's low 12 bits are zero —
// the rest shifts out mod 2^64.
template <typename O>
inline typename O::V VExpCore(typename O::V x, typename O::VI* u) {
  using V = typename O::V;
  const V nd = O::RoundNearest(O::Mul(x, O::Set1(kInvLn2)));
  const V hi = O::Sub(x, O::Mul(nd, O::Set1(kLn2Hi)));
  const V lo = O::Mul(nd, O::Set1(kLn2Lo));
  const V r = O::Sub(hi, lo);
  const V t = O::Mul(r, r);
  const V p = O::Add(
      O::Set1(kExpP1),
      O::Mul(t, O::Add(O::Set1(kExpP2),
                       O::Mul(t, O::Add(O::Set1(kExpP3),
                                        O::Mul(t, O::Add(O::Set1(kExpP4),
                                                         O::Mul(t, O::Set1(
                                                                       kExpP5)))))))));
  const V c = O::Sub(r, O::Mul(t, p));
  *u = O::CastI(O::Add(nd, O::Set1(0x1.8p52)));
  return O::Sub(
      O::Set1(1.0),
      O::Sub(O::Sub(lo, O::Div(O::Mul(r, c), O::Sub(O::Set1(2.0), c))), hi));
}

// 2^n from bits whose low 12 bits are n's (see VExpCore).
template <typename O>
inline typename O::V Pow2Bits(typename O::VI bits) {
  return O::CastD(O::Shl52(O::Add64(bits, O::Set1I(1023))));
}

// exp(x), every lane assumed |x| <= 700 (caller checked AllAbsLe700).
// Mirrors ExpMain in kernels.cc.
template <typename O>
inline typename O::V VExpMain(typename O::V x) {
  typename O::VI u;
  const typename O::V y = VExpCore<O>(x, &u);
  return O::Mul(y, Pow2Bits<O>(u));
}

// exp(x), every lane assumed <= 700 and not NaN: PortableExp per lane.
// Lanes in [-700, 700] take ExpMain; lanes below kExpUnderflow give +0;
// lanes in [kExpUnderflow, -700) take ExpSpecial's two-step scale
// (y * 2^n1) * 2^n2 with n1 = n >> 1 and n2 = n - n1. Since the magic
// constant is even, u >> 1 (logical) carries n1 in its low 12 bits and
// u - (u >> 1) carries n2, both under a multiple of 2^12 that Pow2Bits
// shifts out. The other lanes' garbage in the two-step result, and the
// band lanes' in the main one, are selected away.
template <typename O>
inline typename O::V VExpBelow700(typename O::V x) {
  using V = typename O::V;
  using VI = typename O::VI;
  VI u;
  const V y = VExpCore<O>(x, &u);
  const V main = O::Mul(y, Pow2Bits<O>(u));
  const VI u1 = O::Shr1(u);
  const V band =
      O::Mul(O::Mul(y, Pow2Bits<O>(u1)), Pow2Bits<O>(O::Sub64(u, u1)));
  return O::Select(O::Le(O::Set1(-kExpMainCut), x), main,
                   O::Select(O::Lt(x, O::Set1(kExpUnderflow)),
                             O::Set1(0.0), band));
}

// log N(x; mu, sigma) given log_sigma == VLogMain(sigma) and
// dist == x - mu or -(x - mu): PortableGaussLogPdf (kernels.h) mirrored per
// lane. The sign of dist does not matter: IEEE division is sign-symmetric,
// so z comes out as +-z and z * z has the same bits either way.
template <typename O>
inline typename O::V VGaussLogPdfAt(typename O::V dist, typename O::V sigma,
                                    typename O::V log_sigma) {
  using V = typename O::V;
  const V z = O::Div(dist, sigma);
  const V zz = O::Mul(z, z);
  return O::Sub(O::Sub(O::Mul(O::Set1(-0.5), zz), log_sigma),
                O::Set1(kLogSqrt2Pi));
}

// log N(x; mu, sigma): PortableGaussLogPdf (kernels.h) mirrored per lane.
// sigma lanes must already be proven in-range for VLogMain.
template <typename O>
inline typename O::V VGaussLogPdf(typename O::V x, typename O::V mu,
                                  typename O::V sigma) {
  return VGaussLogPdfAt<O>(O::Sub(x, mu), sigma, VLogMain<O>(sigma));
}

// CombineSigma (sigma_policy.h) per lane. The convolution form is two muls,
// an add and a sqrt — exactly the scalar's operation sequence (every TU
// builds with -ffp-contract=off, so the scalar cannot have fused the
// mul-add either).
template <typename O>
inline typename O::V VCombineSigma(typename O::V sv, typename O::V sq,
                                   bool additive) {
  if (additive) return O::Add(sv, sq);
  return O::Sqrt(O::Add(O::Mul(sv, sv), O::Mul(sq, sq)));
}

// Lanes [0, count) of one block at p: a whole vector for a full block, a
// masked load with `fill` in the lanes past count for the partial one.
template <typename O, bool kPartial>
inline typename O::V LoadLanes(const double* p, size_t count, double fill) {
  if constexpr (kPartial) {
    return O::LoadPartial(p, count, fill);
  } else {
    return O::Load(p);
  }
}

template <typename O, bool kPartial>
inline void StoreLanes(double* p, size_t count, typename O::V v) {
  if constexpr (kPartial) {
    O::StorePartial(p, count, v);
  } else {
    O::Store(p, v);
  }
}

// Entries [j, j + count) of a joint batch; count == kWidth unless kPartial.
template <typename O, bool kPartial>
void JointBlock(const JointBatchArgs& a, size_t j, size_t count,
                double* out_log) {
  using V = typename O::V;
  const bool additive = a.policy == SigmaPolicy::kAdditive;
  V acc = O::Set1(0.0);
  for (size_t i = 0; i < a.dim; ++i) {
    const V sv = LoadLanes<O, kPartial>(a.sigma + i * a.stride + j, count, 1.0);
    const V sigma = VCombineSigma<O>(sv, O::Set1(a.sigma_q[i]), additive);
    // A zero/denormal/inf/NaN combined sigma would take PortableLog's
    // special path — prove every lane is main-path before trusting
    // VLogMain, else rerun the block through the scalar reference.
    if (!O::AllInRange(sigma)) {
      detail::JointLogDensityRange(a, j, j + count, out_log);
      return;
    }
    const V mu = LoadLanes<O, kPartial>(a.mu + i * a.stride + j, count, 0.0);
    acc = O::Add(acc, VGaussLogPdf<O>(O::Set1(a.mu_q[i]), mu, sigma));
  }
  // A NaN accumulator means non-finite mu data flowed through arithmetic
  // whose NaN payload propagation we don't promise to mirror — the scalar
  // rerun gives those lanes the reference bits.
  if (O::AllNotNan(acc)) {
    StoreLanes<O, kPartial>(out_log + j, count, acc);
  } else {
    detail::JointLogDensityRange(a, j, j + count, out_log);
  }
}

template <typename O>
void JointBatchImpl(const JointBatchArgs& a, double* out_log) {
  constexpr size_t W = O::kWidth;
  size_t j = 0;
  for (; j + W <= a.n; j += W) JointBlock<O, false>(a, j, W, out_log);
  if (j < a.n) JointBlock<O, true>(a, j, a.n - j, out_log);
}

// Entries [j, j + count) of a hull batch; count == kWidth unless kPartial.
//
// Each dimension takes the two sigma-corner logs once and shares them:
//   * Lemma 2 upper hull, branchless form of hull.cc's ArgUpperHull: the
//     best mean is x clamped into [mu_lo, mu_hi]; the best sigma is the
//     distance to that mean clamped into [sigma_lo, sigma_hi] (distance 0
//     inside the mu range resolves to sigma_lo — case IV). Equivalence with
//     the branchy scalar is bit-exact: |x - mu_lo| == mu_lo - x by IEEE
//     negation exactness, and clamp == MinStd(MaxStd(v,lo),hi) for every
//     input including NaN. A clamped sigma equal to a corner reuses that
//     corner's log (equal positive normals have equal bits); only a block
//     with a lane strictly inside (cases II and VI) runs a third log.
//   * Lemma 3 lower hull: the scalar takes min(min(a,c), min(d,e)) over the
//     four (mu, sigma) corners. For a fixed sigma the log density depends on
//     the mean only through |fl(x - mu)| and never increases as it grows —
//     division, squaring and subtraction are monotone under rounding — so
//     the farther mean attains both per-sigma minima, and the minimum of
//     the two far-mean corners is the scalar's value bit for bit, ties
//     included (no corner is -0, and a NaN distance still goes NaN).
template <typename O, bool kPartial>
void HullBlock(const HullBatchArgs& a, size_t j, size_t count,
               double* out_log_upper, double* out_log_lower) {
  using V = typename O::V;
  using M = typename O::M;
  const bool additive = a.policy == SigmaPolicy::kAdditive;
  V up = O::Set1(0.0);
  V lo = O::Set1(0.0);
  for (size_t i = 0; i < a.dim; ++i) {
    const size_t at = i * a.stride + j;
    const V sq = O::Set1(a.sigma_q[i]);
    const V slo = VCombineSigma<O>(
        LoadLanes<O, kPartial>(a.sigma_lo + at, count, 1.0), sq, additive);
    const V shi = VCombineSigma<O>(
        LoadLanes<O, kPartial>(a.sigma_hi + at, count, 1.0), sq, additive);
    if (!O::AllInRange(slo) || !O::AllInRange(shi)) {
      detail::HullBoundsRange(a, j, j + count, out_log_upper, out_log_lower);
      return;
    }
    const V log_slo = VLogMain<O>(slo);
    const V log_shi = VLogMain<O>(shi);
    const V mlo = LoadLanes<O, kPartial>(a.mu_lo + at, count, 0.0);
    const V mhi = LoadLanes<O, kPartial>(a.mu_hi + at, count, 0.0);
    const V x = O::Set1(a.mu_q[i]);

    const V mu_c = O::MinStd(O::MaxStd(x, mlo), mhi);
    const V dist = O::Abs(O::Sub(x, mu_c));
    const V sg_c = O::MinStd(O::MaxStd(dist, slo), shi);
    const M at_lo = O::Eq(sg_c, slo);
    const M at_corner = O::Or(at_lo, O::Eq(sg_c, shi));
    V log_sg = O::Select(at_lo, log_slo, log_shi);
    if (!O::All(at_corner)) {
      // Some lane's sigma lies strictly between the corners (or is NaN,
      // whose z is NaN whatever its log).
      log_sg = O::Select(at_corner, log_sg, VLogMain<O>(sg_c));
    }
    up = O::Add(up, VGaussLogPdfAt<O>(O::Sub(x, mu_c), sg_c, log_sg));

    const V dfar =
        O::MaxStd(O::Abs(O::Sub(x, mlo)), O::Abs(O::Sub(x, mhi)));
    lo = O::Add(lo, O::MinStd(VGaussLogPdfAt<O>(dfar, slo, log_slo),
                              VGaussLogPdfAt<O>(dfar, shi, log_shi)));
  }
  // A NaN query coordinate or mu_lo surfaces as NaN in an accumulator
  // (sg_c clamps a NaN distance to NaN; a NaN mu_lo makes dfar NaN), and
  // the block reruns scalar. A NaN mu_hi drops out of the clamp and of
  // dfar's max exactly as it drops out of the scalar's branches and its
  // min tree, so those lanes already hold the reference bits.
  if (O::AllNotNan(up) && O::AllNotNan(lo)) {
    StoreLanes<O, kPartial>(out_log_upper + j, count, up);
    StoreLanes<O, kPartial>(out_log_lower + j, count, lo);
  } else {
    detail::HullBoundsRange(a, j, j + count, out_log_upper, out_log_lower);
  }
}

template <typename O>
void HullBatchImpl(const HullBatchArgs& a, double* out_log_upper,
                   double* out_log_lower) {
  constexpr size_t W = O::kWidth;
  size_t j = 0;
  for (; j + W <= a.n; j += W) {
    HullBlock<O, false>(a, j, W, out_log_upper, out_log_lower);
  }
  if (j < a.n) {
    HullBlock<O, true>(a, j, a.n - j, out_log_upper, out_log_lower);
  }
}

// Entries [j, j + count) of an exp_shift batch. The partial block's fill is
// log_shift itself, so its idle lanes evaluate exp(0).
template <typename O, bool kPartial>
void ExpShiftBlock(const double* log_in, double log_shift, size_t j,
                   size_t count, double* out) {
  using V = typename O::V;
  const V v = O::Sub(LoadLanes<O, kPartial>(log_in + j, count, log_shift),
                     O::Set1(log_shift));
  // |v| <= 700 is ExpMain's domain (result and scale stay normal). Lanes
  // below -700 — far objects rebased against the best one — stay on the
  // vector path too; a NaN or a lane above 700 takes the scalar
  // reference's special handling.
  if (O::AllAbsLe700(v)) {
    StoreLanes<O, kPartial>(out + j, count, VExpMain<O>(v));
  } else if (O::All(O::Le(v, O::Set1(kExpMainCut)))) {
    StoreLanes<O, kPartial>(out + j, count, VExpBelow700<O>(v));
  } else {
    detail::ExpShiftRange(log_in, log_shift, j, j + count, out);
  }
}

template <typename O>
void ExpShiftImpl(const double* log_in, double log_shift, size_t n,
                  double* out) {
  constexpr size_t W = O::kWidth;
  size_t j = 0;
  for (; j + W <= n; j += W) {
    ExpShiftBlock<O, false>(log_in, log_shift, j, W, out);
  }
  if (j < n) ExpShiftBlock<O, true>(log_in, log_shift, j, n - j, out);
}

// --- extent fold (KernelBackend::extent_fold) ---
// Every candidate's lower and upper extremes take one MinStd/MaxStd per
// lane, in std::min/std::max's operand order; a partial block's lanes past
// `axes` are neither read nor written.
template <typename O>
void ExtentFoldImpl(const double* row_lo, const double* row_hi, size_t axes,
                    const uint64_t* side, double* extremes) {
  constexpr size_t W = O::kWidth;
  for (size_t a = 0; a < axes; ++a) {
    const size_t h = (side[a / 64] >> (a % 64)) & 1;
    double* lo = extremes + (2 * a + h) * 2 * axes;
    double* hi = lo + axes;
    size_t x = 0;
    for (; x + W <= axes; x += W) {
      O::Store(lo + x, O::MinStd(O::Load(lo + x), O::Load(row_lo + x)));
      O::Store(hi + x, O::MaxStd(O::Load(hi + x), O::Load(row_hi + x)));
    }
    if (x < axes) {
      const size_t count = axes - x;
      O::StorePartial(lo + x, count,
                      O::MinStd(O::LoadPartial(lo + x, count, 0.0),
                                O::LoadPartial(row_lo + x, count, 0.0)));
      O::StorePartial(hi + x, count,
                      O::MaxStd(O::LoadPartial(hi + x, count, 0.0),
                                O::LoadPartial(row_hi + x, count, 0.0)));
    }
  }
}

}  // namespace gauss::kernels::simd

#endif  // GAUSS_MATH_KERNELS_SIMD_H_
