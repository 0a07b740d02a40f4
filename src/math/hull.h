#ifndef GAUSS_MATH_HULL_H_
#define GAUSS_MATH_HULL_H_

#include <cstddef>

#include "math/sigma_policy.h"

namespace gauss {

// Per-dimension parameter-space bounds of a Gauss-tree node: the minimum
// bounding rectangle over the (mu, sigma) pairs stored in the subtree.
struct DimBounds {
  double mu_lo = 0.0;
  double mu_hi = 0.0;
  double sigma_lo = 0.0;
  double sigma_hi = 0.0;

  bool Contains(double mu, double sigma) const {
    return mu_lo <= mu && mu <= mu_hi && sigma_lo <= sigma && sigma <= sigma_hi;
  }

  bool Valid() const {
    return mu_lo <= mu_hi && 0.0 < sigma_lo && sigma_lo <= sigma_hi;
  }
};

// Conservative upper hull N_hat(x): the maximum density any Gaussian with
// mu in [mu_lo, mu_hi], sigma in [sigma_lo, sigma_hi] can attain at x.
// This is paper Lemma 2, a 7-case piecewise function:
//   (I)   x <  mu_lo - sigma_hi            : N(x; mu_lo, sigma_hi)
//   (II)  mu_lo - sigma_hi <= x < mu_lo - sigma_lo
//                                          : N(x; mu_lo, mu_lo - x)
//   (III) mu_lo - sigma_lo <= x < mu_lo    : N(x; mu_lo, sigma_lo)
//   (IV)  mu_lo <= x < mu_hi               : N(x; x, sigma_lo) (peak value)
//   (V)   mu_hi <= x < mu_hi + sigma_lo    : N(x; mu_hi, sigma_lo)
//   (VI)  mu_hi + sigma_lo <= x < mu_hi + sigma_hi
//                                          : N(x; mu_hi, x - mu_hi)
//   (VII) x >= mu_hi + sigma_hi            : N(x; mu_hi, sigma_hi)
double UpperHull(double x, const DimBounds& b);

// log of UpperHull(). Robust far away from the node. Batch counterpart:
// kernels::HullIntegralBoundsBatch evaluates this per dimension for every
// child MBR of a node in one call (its scalar reference loops this exact
// function); the SIMD lanes realize the same case split branchlessly via
// clamps, bit-identical on DimBounds::Valid() inputs.
double LogUpperHull(double x, const DimBounds& b);

// Conservative lower hull N_check(x): the minimum density any Gaussian inside
// the bounds can attain at x. Paper Lemma 3: the minimum is attained at one
// of the four (mu, sigma) corner combinations.
double LowerHull(double x, const DimBounds& b);

// log of LowerHull(). Also evaluated per dimension inside
// kernels::HullIntegralBoundsBatch, whose SIMD lanes evaluate only the two
// corners at the mean farther from x: for a fixed sigma the log density
// never increases with |fl(x - mu)|, so those two hold the four-corner
// minimum bit for bit (src/math/README.md, "Hull note").
double LogLowerHull(double x, const DimBounds& b);

// Bounds with the query uncertainty folded in: the hull of the *joint*
// densities N(mu_q; mu, combine(sigma, sigma_q)) over all (mu, sigma) in `b`.
// Because CombineSigma is monotone in sigma, the reachable combined-sigma
// interval is [combine(sigma_lo, sq), combine(sigma_hi, sq)].
DimBounds QueryAdjustedBounds(const DimBounds& b, double sigma_q,
                              SigmaPolicy policy);

// Multivariate log upper / lower hull of the joint density of a query pfv
// against everything a subtree may contain; sums per-dimension hulls of the
// query-adjusted bounds. `bounds` points to d DimBounds; `mu_q`, `sigma_q`
// point to d doubles. These score ONE subtree; traversals score all of an
// inner node's children at once through kernels::HullIntegralBoundsBatch,
// whose scalar reference is exactly QueryAdjustedBounds + LogUpperHull +
// LogLowerHull per dimension — identical sums, either route.
double JointLogUpperHull(const DimBounds* bounds, const double* mu_q,
                         const double* sigma_q, size_t d, SigmaPolicy policy);
double JointLogLowerHull(const DimBounds* bounds, const double* mu_q,
                         const double* sigma_q, size_t d, SigmaPolicy policy);

}  // namespace gauss

#endif  // GAUSS_MATH_HULL_H_
