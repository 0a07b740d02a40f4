// Differential tests of the batch scoring kernels (math/kernels.h): every
// backend compiled into this binary and runnable on this CPU must be
// BIT-IDENTICAL to the scalar reference backend — which itself must be
// bit-identical to looping the legacy per-entry scalar math — across random
// sweeps and the IEEE edge values (sigma floors, extreme |x - mu| / sigma,
// denormals, +-inf, NaN propagation) and at entry counts that are not a
// multiple of any vector width. Registered under the `concurrency` ctest
// label so the tsan and asan presets inherit the whole sweep.
//
// The suite prints "active backend: <name>" so CI can grep LastTest.log to
// prove which backend a lane dispatched to (see .github/workflows/ci.yml).

#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/random.h"
#include "gausstree/delta_tree.h"
#include "math/gaussian.h"
#include "math/hull.h"
#include "math/kernels.h"
#include "pfv/pfv.h"

namespace gauss {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormal = 5e-324;

// Values worth planting in any mu/sigma slot: each one either routes a SIMD
// block through its scalar-fallback path or must survive it bit-exactly.
const double kEdgeValues[] = {
    0.0,     -0.0,       1e-300, kDenormal, 1e300,
    1e9,     -1e9,       kInf,   -kInf,     kNan,
    1e-12,   0.5,        2.0,    1.0 + 1e-15,
};

struct JointFixture {
  size_t n = 0, dim = 0, stride = 0;
  std::vector<double> planes;  // dim mu planes then dim sigma planes
  std::vector<double> mu_q, sigma_q;

  kernels::JointBatchArgs Args() const {
    kernels::JointBatchArgs args;
    args.mu = planes.data();
    args.sigma = planes.data() + dim * stride;
    args.stride = stride;
    args.n = n;
    args.dim = dim;
    args.mu_q = mu_q.data();
    args.sigma_q = sigma_q.data();
    return args;
  }

  double& mu(size_t d, size_t j) { return planes[d * stride + j]; }
  double& sigma(size_t d, size_t j) { return planes[(dim + d) * stride + j]; }
};

struct HullFixture {
  size_t n = 0, dim = 0, stride = 0;
  std::vector<double> planes;  // mu_lo | mu_hi | sigma_lo | sigma_hi
  std::vector<double> mu_q, sigma_q;

  kernels::HullBatchArgs Args() const {
    kernels::HullBatchArgs args;
    args.mu_lo = planes.data();
    args.mu_hi = planes.data() + dim * stride;
    args.sigma_lo = planes.data() + 2 * dim * stride;
    args.sigma_hi = planes.data() + 3 * dim * stride;
    args.stride = stride;
    args.n = n;
    args.dim = dim;
    args.mu_q = mu_q.data();
    args.sigma_q = sigma_q.data();
    return args;
  }

  double& mu_lo(size_t d, size_t j) { return planes[d * stride + j]; }
  double& mu_hi(size_t d, size_t j) { return planes[(dim + d) * stride + j]; }
  double& sigma_lo(size_t d, size_t j) {
    return planes[(2 * dim + d) * stride + j];
  }
  double& sigma_hi(size_t d, size_t j) {
    return planes[(3 * dim + d) * stride + j];
  }
};

JointFixture MakeJointFixture(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  JointFixture f;
  f.n = n;
  f.dim = dim;
  f.stride = kernels::PadEntries(n);
  f.planes.assign(2 * dim * f.stride, 0.0);
  for (size_t d = 0; d < dim; ++d) {
    for (size_t j = 0; j < n; ++j) {
      f.mu(d, j) = rng.Uniform(-5, 5);
      f.sigma(d, j) = rng.Uniform(1e-4, 2.0);
    }
  }
  for (size_t d = 0; d < dim; ++d) {
    f.mu_q.push_back(rng.Uniform(-5, 5));
    f.sigma_q.push_back(rng.Uniform(1e-4, 2.0));
  }
  return f;
}

HullFixture MakeHullFixture(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  HullFixture f;
  f.n = n;
  f.dim = dim;
  f.stride = kernels::PadEntries(n);
  f.planes.assign(4 * dim * f.stride, 0.0);
  for (size_t d = 0; d < dim; ++d) {
    for (size_t j = 0; j < n; ++j) {
      double lo = rng.Uniform(-5, 5), hi = rng.Uniform(-5, 5);
      if (lo > hi) std::swap(lo, hi);
      f.mu_lo(d, j) = lo;
      f.mu_hi(d, j) = hi;
      double slo = rng.Uniform(1e-4, 1.0), shi = rng.Uniform(1e-4, 1.0);
      if (slo > shi) std::swap(slo, shi);
      f.sigma_lo(d, j) = slo;
      f.sigma_hi(d, j) = shi;
    }
  }
  for (size_t d = 0; d < dim; ++d) {
    f.mu_q.push_back(rng.Uniform(-5, 5));
    f.sigma_q.push_back(rng.Uniform(1e-4, 2.0));
  }
  return f;
}

// Bit-level equality that treats any-NaN == any-NaN per slot only when the
// payloads match exactly — the contract is memcmp-identical output buffers.
::testing::AssertionResult SameBits(const std::vector<double>& ref,
                                    const std::vector<double>& got) {
  EXPECT_EQ(ref.size(), got.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&ref[i], &got[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "slot " << i << ": scalar=" << ref[i] << " ("
             << std::hexfloat << ref[i] << ") got=" << got[i] << " ("
             << got[i] << ")" << std::defaultfloat;
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<const kernels::KernelBackend*> RunnableBackends() {
  std::vector<const kernels::KernelBackend*> runnable;
  for (const kernels::KernelBackend* backend : kernels::CompiledBackends()) {
    if (kernels::Runnable(*backend)) runnable.push_back(backend);
  }
  return runnable;
}

void ExpectJointMatchesScalar(JointFixture& f, const char* what) {
  const size_t n = f.n;
  std::vector<double> ref(n, -1.0);
  kernels::ScalarBackend().joint_log_density(f.Args(), ref.data());
  for (const kernels::KernelBackend* backend : RunnableBackends()) {
    std::vector<double> got(n, -2.0);
    backend->joint_log_density(f.Args(), got.data());
    EXPECT_TRUE(SameBits(ref, got))
        << what << ": backend " << backend->name << " dim=" << f.dim
        << " n=" << n;
  }
}

void ExpectHullMatchesScalar(HullFixture& f, const char* what) {
  const size_t n = f.n;
  std::vector<double> ref_up(n, -1.0), ref_lo(n, -1.0);
  kernels::ScalarBackend().hull_bounds(f.Args(), ref_up.data(), ref_lo.data());
  for (const kernels::KernelBackend* backend : RunnableBackends()) {
    std::vector<double> got_up(n, -2.0), got_lo(n, -2.0);
    backend->hull_bounds(f.Args(), got_up.data(), got_lo.data());
    EXPECT_TRUE(SameBits(ref_up, got_up))
        << what << " (upper): backend " << backend->name << " dim=" << f.dim
        << " n=" << n;
    EXPECT_TRUE(SameBits(ref_lo, got_lo))
        << what << " (lower): backend " << backend->name << " dim=" << f.dim
        << " n=" << n;
  }
}

TEST(KernelDispatchTest, ScalarAlwaysCompiledAndRunnable) {
  const auto& backends = kernels::CompiledBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends[0]->name, "scalar");
  EXPECT_TRUE(kernels::Runnable(*backends[0]));
  // The grep target for CI's backend-proof step.
  printf("active backend: %s\n", kernels::ActiveBackend().name);
  for (const kernels::KernelBackend* backend : backends) {
    printf("compiled backend: %s (runnable: %s)\n", backend->name,
           kernels::Runnable(*backend) ? "yes" : "no");
  }
}

TEST(KernelDispatchTest, ForceScalarPinsScalar) {
  const char* force = std::getenv("GAUSS_FORCE_SCALAR");
  if (force == nullptr || force[0] == '\0' ||
      (force[0] == '0' && force[1] == '\0')) {
    GTEST_SKIP() << "GAUSS_FORCE_SCALAR not set";
  }
  EXPECT_STREQ(kernels::ActiveBackend().name, "scalar");
}

// The scalar reference backend must equal a literal loop over the legacy
// per-entry functions — that is what "reference" means here.
TEST(KernelScalarReferenceTest, JointEqualsLegacyLoop) {
  JointFixture f = MakeJointFixture(37, 11, 101);
  std::vector<double> out(f.n);
  kernels::ScalarBackend().joint_log_density(f.Args(), out.data());
  for (size_t j = 0; j < f.n; ++j) {
    double acc = 0.0;
    for (size_t d = 0; d < f.dim; ++d) {
      const double combined = CombineSigma(f.sigma(d, j), f.sigma_q[d],
                                           SigmaPolicy::kConvolution);
      acc += GaussianLogPdf(f.mu_q[d], f.mu(d, j), combined);
    }
    EXPECT_EQ(acc, out[j]) << "entry " << j;
  }
}

TEST(KernelScalarReferenceTest, HullEqualsLegacyLoop) {
  HullFixture f = MakeHullFixture(29, 7, 102);
  std::vector<double> up(f.n), lo(f.n);
  kernels::ScalarBackend().hull_bounds(f.Args(), up.data(), lo.data());
  for (size_t j = 0; j < f.n; ++j) {
    double acc_up = 0.0, acc_lo = 0.0;
    for (size_t d = 0; d < f.dim; ++d) {
      DimBounds bounds;
      bounds.mu_lo = f.mu_lo(d, j);
      bounds.mu_hi = f.mu_hi(d, j);
      bounds.sigma_lo = f.sigma_lo(d, j);
      bounds.sigma_hi = f.sigma_hi(d, j);
      const DimBounds adjusted = QueryAdjustedBounds(
          bounds, f.sigma_q[d], SigmaPolicy::kConvolution);
      acc_up += LogUpperHull(f.mu_q[d], adjusted);
      acc_lo += LogLowerHull(f.mu_q[d], adjusted);
    }
    EXPECT_EQ(acc_up, up[j]) << "entry " << j;
    EXPECT_EQ(acc_lo, lo[j]) << "entry " << j;
  }
}

TEST(KernelDifferentialTest, JointRandomSweep) {
  for (const size_t dim : {1u, 2u, 8u, 27u}) {
    // n values straddle every vector width and force ragged tails.
    for (const size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 61u, 64u}) {
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        JointFixture f = MakeJointFixture(n, dim, seed);
        ExpectJointMatchesScalar(f, "random sweep");
      }
    }
  }
}

TEST(KernelDifferentialTest, HullRandomSweep) {
  for (const size_t dim : {1u, 2u, 8u, 27u}) {
    for (const size_t n : {1u, 3u, 8u, 9u, 31u, 61u, 64u}) {
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        HullFixture f = MakeHullFixture(n, dim, seed);
        ExpectHullMatchesScalar(f, "random sweep");
      }
    }
  }
}

// Every edge value in every slot of a full-width block: sigma floors,
// denormals, infinities, NaN payload propagation.
TEST(KernelDifferentialTest, JointEdgeValues) {
  for (const double edge : kEdgeValues) {
    for (const bool into_sigma : {false, true}) {
      JointFixture f = MakeJointFixture(17, 3, 7);
      for (size_t j = 0; j < f.n; j += 2) {
        if (into_sigma) {
          f.sigma(j % f.dim, j) = edge;
        } else {
          f.mu(j % f.dim, j) = edge;
        }
      }
      ExpectJointMatchesScalar(f, "edge values");
    }
  }
}

TEST(KernelDifferentialTest, JointEdgeQueries) {
  for (const double edge : kEdgeValues) {
    JointFixture f = MakeJointFixture(16, 4, 9);
    f.mu_q[1] = edge;
    ExpectJointMatchesScalar(f, "edge query mu");
    JointFixture g = MakeJointFixture(16, 4, 10);
    g.sigma_q[2] = edge;
    ExpectJointMatchesScalar(g, "edge query sigma");
  }
}

TEST(KernelDifferentialTest, JointExtremeZScores) {
  // |x - mu| / sigma so large that zz overflows, and so small that the
  // density is dominated by -log sigma.
  JointFixture f = MakeJointFixture(16, 2, 12);
  f.mu(0, 0) = 1e155;
  f.sigma(0, 0) = 1e-155;  // z ~ 1e310: zz = inf
  f.mu(0, 1) = 1e-30;
  f.sigma(0, 1) = 1e280;   // z ~ 0
  f.mu(1, 2) = -1e155;
  f.sigma(1, 2) = kDenormal;
  ExpectJointMatchesScalar(f, "extreme z");
}

// Edge values under the hull domain invariant (DimBounds::Valid(), which
// every finalized node's bounds satisfy): after planting, the bounds are
// re-ordered so mu_lo <= mu_hi and 0 < sigma_lo <= sigma_hi. NaN — which
// Valid() excludes but the kernels still promise to route identically — is
// exercised via the query in HullEdgeQueries below.
TEST(KernelDifferentialTest, HullEdgeValues) {
  const double mu_edges[] = {0.0, -0.0, 1e-300, kDenormal, 1e300,
                             1e9,  -1e9, kInf,   -kInf,     1e-12};
  const double sigma_edges[] = {kDenormal, 1e-300, 1e-12, 0.5, 1e9, 1e300,
                                kInf};
  for (const double edge : mu_edges) {
    for (const bool into_hi : {false, true}) {
      HullFixture f = MakeHullFixture(17, 3, 8);
      for (size_t j = 0; j < f.n; j += 2) {
        const size_t d = j % f.dim;
        double lo = into_hi ? f.mu_lo(d, j) : edge;
        double hi = into_hi ? edge : f.mu_hi(d, j);
        if (hi < lo) std::swap(lo, hi);
        f.mu_lo(d, j) = lo;
        f.mu_hi(d, j) = hi;
      }
      ExpectHullMatchesScalar(f, "mu edge values");
    }
  }
  for (const double edge : sigma_edges) {
    for (const bool into_hi : {false, true}) {
      HullFixture f = MakeHullFixture(17, 3, 9);
      for (size_t j = 0; j < f.n; j += 2) {
        const size_t d = j % f.dim;
        double lo = into_hi ? f.sigma_lo(d, j) : edge;
        double hi = into_hi ? edge : f.sigma_hi(d, j);
        if (hi < lo) std::swap(lo, hi);
        f.sigma_lo(d, j) = lo;
        f.sigma_hi(d, j) = hi;
      }
      ExpectHullMatchesScalar(f, "sigma edge values");
    }
  }
}

TEST(KernelDifferentialTest, HullEdgeQueries) {
  for (const double edge : kEdgeValues) {
    HullFixture f = MakeHullFixture(16, 4, 21);
    f.mu_q[1] = edge;
    ExpectHullMatchesScalar(f, "edge query mu");
    HullFixture g = MakeHullFixture(16, 4, 22);
    g.sigma_q[2] = edge;
    ExpectHullMatchesScalar(g, "edge query sigma");
  }
}

TEST(KernelDifferentialTest, HullQueryAcrossAllSevenCases) {
  // Sweep the query mean across the Lemma 2 piecewise regions of a fixed
  // bound box (hull.h cases I-VII): far left, boundary, inside, far right.
  // x = 0 is equidistant from both means (the lower hull's far-mean tie).
  HullFixture f = MakeHullFixture(16, 1, 20);
  for (size_t j = 0; j < f.n; ++j) {
    f.mu_lo(0, j) = -1.0;
    f.mu_hi(0, j) = 1.0;
    f.sigma_lo(0, j) = 0.1;
    f.sigma_hi(0, j) = 0.5;
  }
  for (const double x : {-50.0, -1.6, -1.5, -1.1, -1.0, -0.999, 0.0, 0.999,
                         1.0, 1.1, 1.5, 1.6, 50.0}) {
    f.mu_q[0] = x;
    ExpectHullMatchesScalar(f, "seven cases");
  }

  // Per-lane cases at x = 0, ragged n. A "mid" entry sits in case II or VI
  // (its best sigma lies strictly between the sigma corners, the only lanes
  // that need a third log); the others sit in cases I, III, IV, V or VII.
  // Patterns: no mid lane, one mid lane per 8 entries (so some blocks of
  // every width have exactly one and some none), every lane mid — each also
  // with sigma_lo == sigma_hi — plus far-mean ties at mu bounds that are
  // not symmetric about 0 in magnitude.
  enum class Mid { kNone, kOnePer8, kAll };
  for (const size_t n : {5u, 13u, 21u}) {
    for (const Mid mid : {Mid::kNone, Mid::kOnePer8, Mid::kAll}) {
      for (const bool equal_sigmas : {false, true}) {
        HullFixture g = MakeHullFixture(n, 2, 23);
        for (size_t j = 0; j < n; ++j) {
          const bool is_mid = mid == Mid::kAll ||
                              (mid == Mid::kOnePer8 && j % 8 == 3);
          // Means right of x (cases I-IV) or left of it (IV-VII).
          const double side = j % 2 == 0 ? 1.0 : -1.0;
          // Distance from x = 0 to the nearer mean: inside (0.1, 0.5) for
          // mid lanes; otherwise cycle through beyond (I/VII), below
          // (III/V) and on (IV) the sigma range.
          const double near_far[] = {3.0, 0.05, 0.0};
          const double dist = is_mid ? 0.2 + 0.01 * static_cast<double>(j)
                                     : near_far[j % 3];
          for (size_t d = 0; d < 2; ++d) {
            if (side > 0) {
              g.mu_lo(d, j) = dist;
              g.mu_hi(d, j) = dist + 1.0;
            } else {
              g.mu_lo(d, j) = -dist - 1.0;
              g.mu_hi(d, j) = -dist;
            }
            g.sigma_lo(d, j) = 0.1;
            g.sigma_hi(d, j) = equal_sigmas ? 0.1 : 0.5;
          }
        }
        for (size_t d = 0; d < 2; ++d) {
          g.mu_q[d] = 0.0;
          g.sigma_q[d] = 1e-3;
        }
        ExpectHullMatchesScalar(g, "per-lane cases");
      }
    }
    // Exact far-mean ties: x midway between the means, so both distances
    // round to the same double, on asymmetric bounds.
    HullFixture t = MakeHullFixture(n, 1, 24);
    for (size_t j = 0; j < n; ++j) {
      const double c = 0.25 * static_cast<double>(j);
      t.mu_lo(0, j) = c - 0.75;
      t.mu_hi(0, j) = c + 0.75;
      t.sigma_lo(0, j) = 0.125 * static_cast<double>(j % 4 + 1);
      t.sigma_hi(0, j) = t.sigma_lo(0, j) * (j % 2 == 0 ? 1.0 : 3.0);
    }
    for (const double x : {0.0, 0.25, 1.0, 2.5}) {
      t.mu_q[0] = x;
      ExpectHullMatchesScalar(t, "far-mean tie");
    }
  }
}

TEST(KernelDifferentialTest, ExpShiftSweep) {
  Rng rng(31);
  for (const size_t n : {1u, 7u, 8u, 15u, 64u, 301u}) {
    std::vector<double> log_in(n);
    for (size_t j = 0; j < n; ++j) log_in[j] = rng.Uniform(-1000, 50);
    // Plant the specials: overflow, underflow, NaN, +-inf, denormal result.
    if (n >= 8) {
      log_in[0] = 800.0;
      log_in[1] = -800.0;
      log_in[2] = kNan;
      log_in[3] = kInf;
      log_in[4] = -kInf;
      log_in[5] = -745.0;
      log_in[6] = 709.7;
      log_in[7] = 0.0;
    }
    for (const double shift : {-3.5, 0.0, 100.0}) {
      std::vector<double> ref(n, -1.0);
      kernels::ScalarBackend().exp_shift(log_in.data(), shift, n, ref.data());
      for (const kernels::KernelBackend* backend : RunnableBackends()) {
        std::vector<double> got(n, -2.0);
        backend->exp_shift(log_in.data(), shift, n, got.data());
        EXPECT_TRUE(SameBits(ref, got))
            << "exp_shift backend " << backend->name << " n=" << n
            << " shift=" << shift;
      }
    }
  }
}

// The underflow band: blocks with lanes below -700 stay on the vector path
// (+0 below the underflow cut, a two-step scale into the denormals above
// it), so every lane there must still match the scalar reference. A dense
// sweep of [-760, -690] with the band's edges planted, then random mixes
// in which NaN and +705 lanes send some blocks to the scalar fallback.
TEST(KernelDifferentialTest, ExpShiftUnderflowBandSweep) {
  constexpr size_t kSweep = 1 << 18;
  std::vector<double> log_in;
  for (size_t i = 0; i <= kSweep; ++i) {
    log_in.push_back(-760.0 + 70.0 * static_cast<double>(i) / kSweep);
  }
  for (const double edge : {-700.0, -745.133219101941108420, -745.13,
                            -745.14, -708.3964185322641, -744.44007192138122,
                            -kInf, -1e300, -0.0}) {
    log_in.push_back(edge);
    log_in.push_back(std::nextafter(edge, -kInf));
    log_in.push_back(std::nextafter(edge, kInf));
  }
  Rng rng(47);
  for (size_t i = 0; i < 4096; ++i) {
    const double pick = rng.Uniform(0, 1);
    log_in.push_back(pick < 0.02   ? kNan
                     : pick < 0.04 ? 705.0
                     : pick < 0.3  ? rng.Uniform(-20, 0)
                                   : rng.Uniform(-800, -690));
  }
  const size_t n = log_in.size();
  for (const double shift : {0.0, -3.5, 100.0}) {
    std::vector<double> ref(n, -1.0);
    kernels::ScalarBackend().exp_shift(log_in.data(), shift, n, ref.data());
    for (const kernels::KernelBackend* backend : RunnableBackends()) {
      std::vector<double> got(n, -2.0);
      backend->exp_shift(log_in.data(), shift, n, got.data());
      EXPECT_TRUE(SameBits(ref, got))
          << "exp_shift backend " << backend->name << " shift=" << shift;
    }
  }
}

// The bulk load's extent fold: min/max only, so every backend must leave
// the scalar loop's bits, down to which of two zeros or two NaN payloads
// survives. Axis counts straddle every vector width and one side word; a
// guard past the extremes must stay untouched.
TEST(KernelDifferentialTest, ExtentFoldMatchesScalar) {
  double nan_a = kNan, nan_b = kNan;
  uint64_t bits = 0;
  std::memcpy(&bits, &nan_b, sizeof(bits));
  bits ^= 1;  // another quiet NaN payload
  std::memcpy(&nan_b, &bits, sizeof(bits));
  const double kSpecials[] = {0.0, -0.0, nan_a, nan_b, kInf, -kInf, 1.0};
  Rng rng(41);
  const auto value = [&] {
    return rng.UniformInt(3) == 0 ? kSpecials[rng.UniformInt(7)]
                                  : rng.Uniform(-1, 1);
  };
  for (const size_t axes : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 20u, 65u, 80u}) {
    const size_t words = (axes + 63) / 64;
    const size_t size = 4 * axes * axes;
    std::vector<double> ref(size + 8);
    for (double& x : ref) x = value();
    std::vector<std::vector<double>> got(RunnableBackends().size(), ref);
    for (int item = 0; item < 6; ++item) {
      std::vector<double> row_lo(axes), row_hi(axes);
      for (double& x : row_lo) x = value();
      for (double& x : row_hi) x = value();
      std::vector<uint64_t> side(words);
      for (uint64_t& w : side) w = rng.NextU64();
      kernels::ScalarBackend().extent_fold(row_lo.data(), row_hi.data(), axes,
                                           side.data(), ref.data());
      for (size_t b = 0; b < got.size(); ++b) {
        RunnableBackends()[b]->extent_fold(row_lo.data(), row_hi.data(),
                                           axes, side.data(), got[b].data());
      }
    }
    for (size_t b = 0; b < got.size(); ++b) {
      EXPECT_TRUE(SameBits(ref, got[b]))
          << "extent_fold backend " << RunnableBackends()[b]->name
          << " axes=" << axes;
    }
  }
}

TEST(KernelDifferentialTest, AdditiveSigmaPolicy) {
  JointFixture f = MakeJointFixture(23, 5, 40);
  {
    kernels::JointBatchArgs args = f.Args();
    args.policy = SigmaPolicy::kAdditive;
    std::vector<double> ref(f.n);
    kernels::ScalarBackend().joint_log_density(args, ref.data());
    for (const kernels::KernelBackend* backend : RunnableBackends()) {
      std::vector<double> got(f.n);
      backend->joint_log_density(args, got.data());
      EXPECT_TRUE(SameBits(ref, got)) << "additive joint " << backend->name;
    }
  }
  HullFixture h = MakeHullFixture(23, 5, 41);
  {
    kernels::HullBatchArgs args = h.Args();
    args.policy = SigmaPolicy::kAdditive;
    std::vector<double> ref_up(h.n), ref_lo(h.n), got_up(h.n), got_lo(h.n);
    kernels::ScalarBackend().hull_bounds(args, ref_up.data(), ref_lo.data());
    for (const kernels::KernelBackend* backend : RunnableBackends()) {
      backend->hull_bounds(args, got_up.data(), got_lo.data());
      EXPECT_TRUE(SameBits(ref_up, got_up)) << "additive hull " << backend->name;
      EXPECT_TRUE(SameBits(ref_lo, got_lo)) << "additive hull " << backend->name;
    }
  }
}

// `count` doubles whose last element ends exactly where a PROT_NONE page
// begins: any read or write of element `count` or beyond faults. A partial
// block that loaded or stored a full vector would touch that page.
class GuardedArray {
 public:
  explicit GuardedArray(size_t count) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t data_pages = (count * sizeof(double) + page - 1) / page;
    length_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, length_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    GAUSS_CHECK(base != MAP_FAILED);
    base_ = static_cast<char*>(base);
    char* guard = base_ + data_pages * page;
    const int protected_guard = mprotect(guard, page, PROT_NONE);
    GAUSS_CHECK(protected_guard == 0);
    data_ = reinterpret_cast<double*>(guard) - count;
  }
  ~GuardedArray() { munmap(base_, length_); }
  GuardedArray(const GuardedArray&) = delete;
  GuardedArray& operator=(const GuardedArray&) = delete;

  double* data() const { return data_; }

 private:
  char* base_ = nullptr;
  size_t length_ = 0;
  double* data_ = nullptr;
};

// Copies `count` doubles into a fresh guarded array.
std::unique_ptr<GuardedArray> Guarded(const double* src, size_t count) {
  auto array = std::make_unique<GuardedArray>(count);
  std::memcpy(array->data(), src, count * sizeof(double));
  return array;
}

// Re-lays a fixture's plane groups at stride == n, so each group's final
// plane ends at its last entry.
template <typename Fixture>
void PackToStrideN(Fixture& f, size_t groups) {
  std::vector<double> packed(groups * f.dim * f.n);
  for (size_t plane = 0; plane < groups * f.dim; ++plane) {
    std::memcpy(packed.data() + plane * f.n,
                f.planes.data() + plane * f.stride, f.n * sizeof(double));
  }
  f.planes = std::move(packed);
  f.stride = f.n;
}

// Every tail length short of one or two full vectors of the widest backend.
std::vector<size_t> TailLengths() {
  std::vector<size_t> ns;
  for (size_t n = 1; n < 2 * kernels::kMaxLanes; ++n) {
    if (n != kernels::kMaxLanes) ns.push_back(n);
  }
  return ns;
}

// The kernel contract that no access reaches element n (kernels.h
// JointBatchArgs, relied on by DeltaTree's concurrent append), checked with
// guard pages rather than trusted: each plane group, the query arrays, the
// exp_shift input and every output end exactly at a PROT_NONE page, with
// stride == n so the final plane of each group ends there too. Each length
// also runs a variant whose last entry forces the block's scalar rerun.
TEST(KernelDifferentialTest, TailNeverTouchesPastN) {
  for (const size_t n : TailLengths()) {
    for (const size_t dim : {1u, 3u}) {
      for (const bool fallback : {false, true}) {
        JointFixture jf = MakeJointFixture(n, dim, 61);
        PackToStrideN(jf, 2);
        if (fallback) jf.planes[dim * n - 1] = kNan;  // last mu: NaN acc
        const auto mu = Guarded(jf.planes.data(), dim * n);
        const auto sigma = Guarded(jf.planes.data() + dim * n, dim * n);
        const auto mu_q = Guarded(jf.mu_q.data(), dim);
        const auto sigma_q = Guarded(jf.sigma_q.data(), dim);
        kernels::JointBatchArgs jargs = jf.Args();
        jargs.mu = mu->data();
        jargs.sigma = sigma->data();
        jargs.mu_q = mu_q->data();
        jargs.sigma_q = sigma_q->data();
        std::vector<double> ref(n);
        kernels::ScalarBackend().joint_log_density(jargs, ref.data());

        HullFixture hf = MakeHullFixture(n, dim, 62);
        PackToStrideN(hf, 4);
        if (fallback) hf.planes.back() = kInf;  // last sigma_hi: out of range
        std::vector<std::unique_ptr<GuardedArray>> groups;
        for (size_t g = 0; g < 4; ++g) {
          groups.push_back(Guarded(hf.planes.data() + g * dim * n, dim * n));
        }
        const auto hmu_q = Guarded(hf.mu_q.data(), dim);
        const auto hsigma_q = Guarded(hf.sigma_q.data(), dim);
        kernels::HullBatchArgs hargs = hf.Args();
        hargs.mu_lo = groups[0]->data();
        hargs.mu_hi = groups[1]->data();
        hargs.sigma_lo = groups[2]->data();
        hargs.sigma_hi = groups[3]->data();
        hargs.mu_q = hmu_q->data();
        hargs.sigma_q = hsigma_q->data();
        std::vector<double> ref_up(n), ref_lo(n);
        kernels::ScalarBackend().hull_bounds(hargs, ref_up.data(),
                                             ref_lo.data());

        Rng rng(63);
        std::vector<double> log_in(n);
        for (double& v : log_in) v = rng.Uniform(-1000, 50);
        if (fallback) log_in.back() = kNan;
        const auto exp_in = Guarded(log_in.data(), n);
        std::vector<double> ref_exp(n);
        kernels::ScalarBackend().exp_shift(exp_in->data(), -3.5, n,
                                           ref_exp.data());

        for (const kernels::KernelBackend* backend : RunnableBackends()) {
          GuardedArray out(n), out_up(n), out_lo(n), out_exp(n);
          backend->joint_log_density(jargs, out.data());
          backend->hull_bounds(hargs, out_up.data(), out_lo.data());
          backend->exp_shift(exp_in->data(), -3.5, n, out_exp.data());
          const auto got = [n](const GuardedArray& a) {
            return std::vector<double>(a.data(), a.data() + n);
          };
          EXPECT_TRUE(SameBits(ref, got(out)))
              << "joint " << backend->name << " n=" << n << " dim=" << dim
              << " fallback=" << fallback;
          EXPECT_TRUE(SameBits(ref_up, got(out_up)))
              << "hull upper " << backend->name << " n=" << n
              << " dim=" << dim << " fallback=" << fallback;
          EXPECT_TRUE(SameBits(ref_lo, got(out_lo)))
              << "hull lower " << backend->name << " n=" << n
              << " dim=" << dim << " fallback=" << fallback;
          EXPECT_TRUE(SameBits(ref_exp, got(out_exp)))
              << "exp_shift " << backend->name << " n=" << n
              << " fallback=" << fallback;
        }
      }
    }
  }
}

// Portable transcendental contracts (the scalar side of the bit-stability
// story): IEEE special cases and near-libm accuracy.
TEST(PortableTranscendentalTest, LogSpecialCases) {
  EXPECT_EQ(kernels::PortableLog(1.0), 0.0);
  EXPECT_EQ(kernels::PortableLog(0.0), -kInf);
  EXPECT_EQ(kernels::PortableLog(-0.0), -kInf);
  EXPECT_EQ(kernels::PortableLog(kInf), kInf);
  EXPECT_TRUE(std::isnan(kernels::PortableLog(-1.0)));
  EXPECT_TRUE(std::isnan(kernels::PortableLog(kNan)));
  EXPECT_TRUE(std::isnan(kernels::PortableLog(-kInf)));
  // Denormal inputs take the rescaled path and stay finite.
  EXPECT_NEAR(kernels::PortableLog(kDenormal), std::log(kDenormal), 1e-12);
}

TEST(PortableTranscendentalTest, ExpSpecialCases) {
  EXPECT_EQ(kernels::PortableExp(0.0), 1.0);
  EXPECT_EQ(kernels::PortableExp(kInf), kInf);
  EXPECT_EQ(kernels::PortableExp(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(kernels::PortableExp(kNan)));
  EXPECT_EQ(kernels::PortableExp(1000.0), kInf);   // overflow
  EXPECT_EQ(kernels::PortableExp(-1000.0), 0.0);   // underflow
  // Gradual underflow region produces denormals, not a hard zero.
  const double tiny = kernels::PortableExp(-744.0);
  EXPECT_GT(tiny, 0.0);
  EXPECT_LT(tiny, std::numeric_limits<double>::min());
}

TEST(PortableTranscendentalTest, NearLibmAccuracy) {
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.Uniform(-300, 300));  // log-uniform
    const double ref = std::log(x);
    const double got = kernels::PortableLog(x);
    EXPECT_NEAR(got, ref, 4e-16 * std::max(1.0, std::abs(ref))) << "x=" << x;
  }
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-700, 700);
    const double ref = std::exp(x);
    const double got = kernels::PortableExp(x);
    EXPECT_NEAR(got, ref, 4e-16 * ref) << "x=" << x;
  }
}

// DeltaTree's SoA planes: the release-store of size() must license plane
// reads of the published prefix while a writer keeps appending — the exact
// access pattern DeltaBackend::Start's batch scan performs. Run under tsan
// via the `concurrency` label.
TEST(DeltaTreePlanesTest, ConcurrentAppendAndBatchScan) {
  constexpr size_t kDim = 4;
  constexpr size_t kCapacity = 512;
  DeltaTree delta(kDim, kCapacity);
  // The AoS oracle: the delta keeps only ids and planes.
  std::vector<Pfv> objects;
  Rng object_rng(55);
  for (size_t i = 0; i < kCapacity; ++i) {
    std::vector<double> mu(kDim), sigma(kDim);
    for (double& m : mu) m = object_rng.Uniform(0, 1);
    for (double& s : sigma) s = object_rng.Uniform(0.01, 0.1);
    objects.emplace_back(i, std::move(mu), std::move(sigma));
  }

  std::thread writer([&delta, &objects] {
    for (const Pfv& pfv : objects) ASSERT_TRUE(delta.Append(pfv));
  });

  Rng rng(56);
  Pfv q(0, std::vector<double>(kDim, 0.5), std::vector<double>(kDim, 0.05));
  for (int round = 0; round < 200; ++round) {
    const size_t n = delta.size();  // acquire: licenses planes[0, n)
    if (n == 0) continue;
    std::vector<double> out(n);
    kernels::JointBatchArgs args;
    args.mu = delta.mu_planes();
    args.sigma = delta.sigma_planes();
    args.stride = delta.plane_stride();
    args.n = n;
    args.dim = kDim;
    args.mu_q = q.mu.data();
    args.sigma_q = q.sigma.data();
    kernels::JointLogDensityBatch(args, out.data());
    // Cross-check the published prefix against the AoS oracle.
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(delta.ids()[i], objects[i].id) << "slot " << i;
      EXPECT_EQ(out[i], PfvJointLogDensity(objects[i], q)) << "slot " << i;
    }
  }
  writer.join();

  // Final full-prefix scan sees every appended object.
  EXPECT_EQ(delta.size(), kCapacity);
  std::vector<double> out(kCapacity);
  kernels::JointBatchArgs args;
  args.mu = delta.mu_planes();
  args.sigma = delta.sigma_planes();
  args.stride = delta.plane_stride();
  args.n = kCapacity;
  args.dim = kDim;
  args.mu_q = q.mu.data();
  args.sigma_q = q.sigma.data();
  kernels::JointLogDensityBatch(args, out.data());
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(out[i], PfvJointLogDensity(objects[i], q)) << "slot " << i;
  }
}

}  // namespace
}  // namespace gauss
