#ifndef GAUSS_MATH_SIGMA_POLICY_H_
#define GAUSS_MATH_SIGMA_POLICY_H_

#include <cmath>

namespace gauss {

// How the uncertainty of the query and of a database object are combined in
// the joint-density lemma (paper Lemma 1).
//
//   kConvolution: sigma' = sqrt(sigma_v^2 + sigma_q^2).
//     This is the statistically exact value of
//     integral N(x; mu_v, sigma_v) * N(x; mu_q, sigma_q) dx
//     = N(mu_q; mu_v, sqrt(sigma_v^2 + sigma_q^2)).
//   kAdditive: sigma' = sigma_v + sigma_q.
//     The paper's formulas are written with a plain "+" on the deviation
//     parameter. The additive form is a conservative over-estimate of the
//     combined spread (sqrt(a^2+b^2) <= a+b), so it never sharpens a bound;
//     we expose it to reproduce the paper literally and to quantify the
//     difference (ablation A4, bench/ablation_sigma_policy.cc).
//
// Both policies are monotonically increasing in each argument, which is what
// the hull-bound query machinery relies on when shifting the sigma interval
// of an index node by the query's sigma.
enum class SigmaPolicy {
  kConvolution,
  kAdditive,
};

// Combined deviation of a database-object sigma and a query sigma.
inline double CombineSigma(double sigma_v, double sigma_q, SigmaPolicy policy) {
  if (policy == SigmaPolicy::kAdditive) return sigma_v + sigma_q;
  return std::sqrt(sigma_v * sigma_v + sigma_q * sigma_q);
}

}  // namespace gauss

#endif  // GAUSS_MATH_SIGMA_POLICY_H_
