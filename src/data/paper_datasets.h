#ifndef GAUSS_DATA_PAPER_DATASETS_H_
#define GAUSS_DATA_PAPER_DATASETS_H_

#include <cstdint>
#include <vector>

#include "data/generators.h"
#include "data/workload.h"
#include "pfv/pfv.h"

namespace gauss {

// The two evaluation datasets of the paper (Section 6), as calibrated
// surrogates (rationale and measured figures in bench/README.md, "Data
// sets"):
//
//  * Data set 1 — 10,987 27-dimensional color histograms of an image
//    database. Surrogate: clustered simplex-valued histogram means; each
//    *dimension* carries a randomly generated base uncertainty (the paper:
//    "we complemented each dimension with a randomly generated standard
//    deviation"), individualized per object by a bounded jitter. The wide
//    base range makes Euclidean NN fail while the probabilistic model keeps
//    identifying (Figure 6a) and keeps the parameter-space hulls tight
//    enough for index pruning (Figure 7 left).
//
//  * Data set 2 — 100,000 randomly generated 10-dimensional pfv. Surrogate:
//    Gaussian-mixture means with moderate per-object uncertainties.
//
// Both generators are deterministic given the seed.
struct PaperDataset {
  PfvDataset dataset{1};
  // Per-dimension base uncertainty; empty when sigmas are drawn per object
  // from `sigma_model` instead.
  std::vector<double> sigma_base;
  double sigma_jitter = 0.25;
  SigmaModel sigma_model;
  // Range of the per-query observation-quality factor: a fresh observation's
  // sigmas are `base * quality * jitter`. Bad captures (large factor) are
  // what defeat the Euclidean baseline while the probabilistic model, which
  // is told the query's uncertainty, absorbs them.
  double quality_lo = 1.0;
  double quality_hi = 1.0;

  // Draws a sigma vector for a fresh observation (query protocol).
  std::vector<double> DrawQuerySigmas(Rng& rng, double quality = 1.0) const;
};

PaperDataset GeneratePaperDataset1(size_t size = 10987, uint64_t seed = 1);
PaperDataset GeneratePaperDataset2(size_t size = 100000, uint64_t seed = 2);

// Query workload per the paper's protocol: sample objects, draw the observed
// mean w.r.t. each source object's own Gaussian, draw fresh query sigmas
// from the dataset's uncertainty regime.
std::vector<IdentificationQuery> GeneratePaperWorkload(const PaperDataset& pd,
                                                       size_t query_count,
                                                       uint64_t seed = 77);

}  // namespace gauss

#endif  // GAUSS_DATA_PAPER_DATASETS_H_
