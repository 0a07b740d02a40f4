#include "math/kernels.h"

// AVX-512 backend: 8 doubles per vector. This file alone is compiled with
// -mavx512f -mavx512dq (CMakeLists set_source_files_properties); dispatch
// requires both CPU features (DQ supplies vcvtqq2pd and the 512-bit FP
// bitwise ops). Without the flags the TU collapses to a null
// GetAvx512Backend().

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "math/kernels_simd.h"

namespace gauss::kernels {

namespace {

struct Avx512Ops {
  using V = __m512d;
  using VI = __m512i;
  using M = __mmask8;
  static constexpr size_t kWidth = 8;
  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  // Masked-off lanes are neither read nor written (no fault past the end).
  static M FirstLanes(size_t count) {
    return static_cast<M>((1u << count) - 1u);
  }
  static V LoadPartial(const double* p, size_t count, double fill) {
    return _mm512_mask_loadu_pd(Set1(fill), FirstLanes(count), p);
  }
  static void StorePartial(double* p, size_t count, V v) {
    _mm512_mask_storeu_pd(p, FirstLanes(count), v);
  }
  static V Set1(double x) { return _mm512_set1_pd(x); }
  static VI Set1I(int64_t x) { return _mm512_set1_epi64(x); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm512_div_pd(a, b); }
  static V Sqrt(V a) { return _mm512_sqrt_pd(a); }
  // Spelled as an explicit and-mask: _mm512_abs_pd had a broken prototype
  // in some GCC header versions.
  static V Abs(V a) {
    return _mm512_and_pd(a, CastD(Set1I(0x7fffffffffffffffLL)));
  }
  static V RoundNearest(V a) {
    return _mm512_roundscale_pd(a,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  // Same swapped-operand trick as AVX2: vminpd/vmaxpd return the second
  // source on NaN (and on +-0 ties), which with (b, a) reproduces
  // std::min/std::max exactly.
  static V MinStd(V a, V b) { return _mm512_min_pd(b, a); }
  static V MaxStd(V a, V b) { return _mm512_max_pd(b, a); }
  static M Eq(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static M Le(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static M Lt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M Or(M a, M b) { return static_cast<M>(a | b); }
  static bool All(M m) { return m == 0xff; }
  static V Select(M m, V t, V f) { return _mm512_mask_blend_pd(m, f, t); }
  static VI CastI(V a) { return _mm512_castpd_si512(a); }
  static V CastD(VI a) { return _mm512_castsi512_pd(a); }
  static VI Add64(VI a, VI b) { return _mm512_add_epi64(a, b); }
  static VI Sub64(VI a, VI b) { return _mm512_sub_epi64(a, b); }
  static VI And64(VI a, VI b) { return _mm512_and_si512(a, b); }
  static VI Shl52(VI a) { return _mm512_slli_epi64(a, 52); }
  static VI Shr1(VI a) { return _mm512_srli_epi64(a, 1); }
  static VI Sra52(VI a) { return _mm512_srai_epi64(a, 52); }
  static V I64ToF64(VI a) { return _mm512_cvtepi64_pd(a); }
  static bool AllInRange(V s) {
    const __mmask8 ge =
        _mm512_cmp_pd_mask(s, Set1(simd::kMinNormal), _CMP_GE_OQ);
    const __mmask8 le =
        _mm512_cmp_pd_mask(s, Set1(simd::kMaxFinite), _CMP_LE_OQ);
    return (ge & le) == 0xff;
  }
  static bool AllAbsLe700(V x) {
    return _mm512_cmp_pd_mask(Abs(x), Set1(simd::kExpMainCut), _CMP_LE_OQ) ==
           0xff;
  }
  static bool AllNotNan(V x) {
    return _mm512_cmp_pd_mask(x, x, _CMP_EQ_OQ) == 0xff;
  }
};

void Avx512Joint(const JointBatchArgs& args, double* out_log) {
  simd::JointBatchImpl<Avx512Ops>(args, out_log);
}
void Avx512Hull(const HullBatchArgs& args, double* out_log_upper,
                double* out_log_lower) {
  simd::HullBatchImpl<Avx512Ops>(args, out_log_upper, out_log_lower);
}
void Avx512ExpShift(const double* log_in, double log_shift, size_t n,
                    double* out) {
  simd::ExpShiftImpl<Avx512Ops>(log_in, log_shift, n, out);
}

void Avx512ExtentFold(const double* row_lo, const double* row_hi,
                      size_t axes, const uint64_t* side, double* extremes) {
  simd::ExtentFoldImpl<Avx512Ops>(row_lo, row_hi, axes, side, extremes);
}

const KernelBackend kAvx512Backend = {"avx512", Avx512Joint, Avx512Hull,
                                      Avx512ExpShift, Avx512ExtentFold};

}  // namespace

const KernelBackend* GetAvx512Backend() { return &kAvx512Backend; }

}  // namespace gauss::kernels

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace gauss::kernels {
const KernelBackend* GetAvx512Backend() { return nullptr; }
}  // namespace gauss::kernels

#endif
