#ifndef GAUSS_DATA_GENERATORS_H_
#define GAUSS_DATA_GENERATORS_H_

#include <cstdint>

#include "common/random.h"
#include "pfv/pfv.h"

namespace gauss {

// How per-dimension uncertainty values are drawn. The paper complements each
// feature dimension "with a randomly generated standard deviation"; the
// magnitudes are expressed relative to `scale` (typically the per-dimension
// spread of the data) so that NN-confusing uncertainty levels can be dialed
// in for both the histogram-like and the uniform data sets.
struct SigmaModel {
  double min_fraction = 0.05;   // sigma >= min_fraction * scale
  double max_fraction = 0.50;   // sigma <= max_fraction * scale
  double scale = 1.0;

  double Draw(Rng& rng) const {
    return scale * rng.Uniform(min_fraction, max_fraction);
  }
};

// Data set 1 surrogate: clustered, L1-normalized, non-negative 27-d vectors
// resembling color histograms of an image collection (the paper's image
// data is not public; bench/README.md, "Data sets", gives the rationale).
// `cluster_count` mixture components with
// Dirichlet-like centers; points scatter around their center and are
// re-normalized onto the simplex.
struct HistogramDatasetConfig {
  size_t size = 10987;
  size_t dim = 27;
  size_t cluster_count = 40;
  double within_cluster_spread = 0.25;  // relative to the center profile
  SigmaModel sigma_model{0.05, 0.5, 0.0};  // scale 0 = auto (per-dim stddev)
  uint64_t seed = 1;
};

PfvDataset GenerateHistogramDataset(const HistogramDatasetConfig& config);

// Uniform pfv in [0, 1]^d. Kept for tests and worst-case ablations: i.i.d.
// uniform data is the regime where *no* R-tree-family index can prune (the
// curse of dimensionality makes every hull bound loose), which the scaling
// sweep demonstrates.
struct UniformDatasetConfig {
  size_t size = 100000;
  size_t dim = 10;
  SigmaModel sigma_model{0.01, 0.1, 1.0};
  uint64_t seed = 2;
};

PfvDataset GenerateUniformDataset(const UniformDatasetConfig& config);

// Data set 2 surrogate: 100,000 randomly generated pfv in a 10-dimensional
// feature space (paper Section 6). Means are drawn from a Gaussian mixture
// ("randomly generated" feature vectors of real systems are correlated; an
// index can only beat a scan when the data carries structure; ablation A3
// shows the uniform case). Defaults are set so that the paper's two
// headline results hold simultaneously: near-perfect MLIQ identification
// *and* substantial index pruning.
struct ClusteredDatasetConfig {
  size_t size = 100000;
  size_t dim = 10;
  size_t cluster_count = 150;
  double cluster_stddev = 0.07;   // per-dimension spread within a cluster
  SigmaModel sigma_model{0.008, 0.035, 1.0};
  uint64_t seed = 2;
};

PfvDataset GenerateClusteredDataset(const ClusteredDatasetConfig& config);

// Per-dimension mean/stddev summary of a dataset's mu values (used to
// auto-scale sigma models and by generator tests).
struct DatasetMoments {
  std::vector<double> mean;
  std::vector<double> stddev;
  double avg_stddev = 0.0;
};

DatasetMoments ComputeMoments(const PfvDataset& dataset);

}  // namespace gauss

#endif  // GAUSS_DATA_GENERATORS_H_
