#include "math/kernels.h"

// AVX2 backend: 4 doubles per vector. This file alone is compiled with
// -mavx2 (CMakeLists set_source_files_properties), so nothing here may be
// called before Runnable() confirms the CPU — kernels.cc's dispatch does
// that. On non-x86 builds the flag is absent, __AVX2__ is undefined, and
// the TU collapses to a null GetAvx2Backend().

#if defined(__AVX2__)

#include <immintrin.h>

#include "math/kernels_simd.h"

namespace gauss::kernels {

namespace {

struct Avx2Ops {
  using V = __m256d;
  using VI = __m256i;
  using M = __m256d;  // all-ones lanes where true
  static constexpr size_t kWidth = 4;
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  // vmaskmovpd: masked-off lanes are neither read nor written (no fault
  // past the end); the load zeroes them, so the fill is blended in after.
  static VI FirstLanes(size_t count) {
    return _mm256_cmpgt_epi64(Set1I(static_cast<int64_t>(count)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static V LoadPartial(const double* p, size_t count, double fill) {
    const VI mask = FirstLanes(count);
    return _mm256_blendv_pd(Set1(fill), _mm256_maskload_pd(p, mask),
                            CastD(mask));
  }
  static void StorePartial(double* p, size_t count, V v) {
    _mm256_maskstore_pd(p, FirstLanes(count), v);
  }
  static V Set1(double x) { return _mm256_set1_pd(x); }
  static VI Set1I(int64_t x) { return _mm256_set1_epi64x(x); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm256_div_pd(a, b); }
  static V Sqrt(V a) { return _mm256_sqrt_pd(a); }
  static V Abs(V a) {
    return _mm256_and_pd(
        a, _mm256_castsi256_pd(Set1I(0x7fffffffffffffffLL)));
  }
  static V RoundNearest(V a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  // vminpd/vmaxpd return the SECOND source when either operand is NaN (or
  // for min, when the operands compare unordered-equal like +-0); swapping
  // the operands makes them match std::min/std::max lane for lane,
  // including which NaN payload survives.
  static V MinStd(V a, V b) { return _mm256_min_pd(b, a); }
  static V MaxStd(V a, V b) { return _mm256_max_pd(b, a); }
  static M Eq(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static M Le(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static M Lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M Or(M a, M b) { return _mm256_or_pd(a, b); }
  static bool All(M m) { return _mm256_movemask_pd(m) == 0xf; }
  static V Select(M m, V t, V f) { return _mm256_blendv_pd(f, t, m); }
  static VI CastI(V a) { return _mm256_castpd_si256(a); }
  static V CastD(VI a) { return _mm256_castsi256_pd(a); }
  static VI Add64(VI a, VI b) { return _mm256_add_epi64(a, b); }
  static VI Sub64(VI a, VI b) { return _mm256_sub_epi64(a, b); }
  static VI And64(VI a, VI b) { return _mm256_and_si256(a, b); }
  static VI Shl52(VI a) { return _mm256_slli_epi64(a, 52); }
  static VI Shr1(VI a) { return _mm256_srli_epi64(a, 1); }
  static VI Sra52(VI a) {
    // AVX2 has no 64-bit arithmetic right shift: logical-shift the top 12
    // bits down, then sign-extend the 12-bit value with (x ^ 0x800) - 0x800.
    const VI logical = _mm256_srli_epi64(a, 52);
    const VI bias = Set1I(0x800);
    return _mm256_sub_epi64(_mm256_xor_si256(logical, bias), bias);
  }
  static V I64ToF64(VI a) {
    // No cvtepi64_pd before AVX-512DQ. The only int64->double conversion
    // the kernels need is log's exponent k, with |k| < 2^12, so the
    // magic-number trick is exact: bit_cast(0x1.8p52's bits + k) is the
    // double 0x1.8p52 + k as long as |k| < 2^51.
    const VI magic = Set1I(0x4338000000000000LL);
    return _mm256_sub_pd(CastD(_mm256_add_epi64(a, magic)), Set1(0x1.8p52));
  }
  static bool AllInRange(V s) {
    return All(
        _mm256_and_pd(_mm256_cmp_pd(s, Set1(simd::kMinNormal), _CMP_GE_OQ),
                      _mm256_cmp_pd(s, Set1(simd::kMaxFinite), _CMP_LE_OQ)));
  }
  static bool AllAbsLe700(V x) {
    return All(_mm256_cmp_pd(Abs(x), Set1(simd::kExpMainCut), _CMP_LE_OQ));
  }
  static bool AllNotNan(V x) {
    return All(_mm256_cmp_pd(x, x, _CMP_EQ_OQ));
  }
};

void Avx2Joint(const JointBatchArgs& args, double* out_log) {
  simd::JointBatchImpl<Avx2Ops>(args, out_log);
}
void Avx2Hull(const HullBatchArgs& args, double* out_log_upper,
              double* out_log_lower) {
  simd::HullBatchImpl<Avx2Ops>(args, out_log_upper, out_log_lower);
}
void Avx2ExpShift(const double* log_in, double log_shift, size_t n,
                  double* out) {
  simd::ExpShiftImpl<Avx2Ops>(log_in, log_shift, n, out);
}

void Avx2ExtentFold(const double* row_lo, const double* row_hi,
                    size_t axes, const uint64_t* side, double* extremes) {
  simd::ExtentFoldImpl<Avx2Ops>(row_lo, row_hi, axes, side, extremes);
}

const KernelBackend kAvx2Backend = {"avx2", Avx2Joint, Avx2Hull,
                                    Avx2ExpShift, Avx2ExtentFold};

}  // namespace

const KernelBackend* GetAvx2Backend() { return &kAvx2Backend; }

}  // namespace gauss::kernels

#else  // !defined(__AVX2__)

namespace gauss::kernels {
const KernelBackend* GetAvx2Backend() { return nullptr; }
}  // namespace gauss::kernels

#endif
