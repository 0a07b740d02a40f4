#include "data/paper_datasets.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace gauss {

std::vector<double> PaperDataset::DrawQuerySigmas(Rng& rng,
                                                  double quality) const {
  std::vector<double> sigma(dataset.dim());
  if (!sigma_base.empty()) {
    for (size_t j = 0; j < sigma.size(); ++j) {
      sigma[j] = std::max(
          1e-9, sigma_base[j] * quality *
                    rng.Uniform(1.0 - sigma_jitter, 1.0 + sigma_jitter));
    }
  } else {
    for (double& s : sigma) {
      s = std::max(1e-9, quality * sigma_model.Draw(rng));
    }
  }
  return sigma;
}

PaperDataset GeneratePaperDataset1(size_t size, uint64_t seed) {
  constexpr size_t kDim = 27;
  constexpr size_t kClusters = 40;
  constexpr double kSpread = 0.25;
  // Base uncertainty per dimension: fraction of the dimension's realized
  // spread, drawn from a wide range so some features are nearly exact and
  // others nearly useless — the heteroscedasticity that defeats Euclidean NN.
  constexpr double kBaseLo = 0.05;
  constexpr double kBaseHi = 0.7;
  constexpr double kJitter = 0.25;

  Rng rng(seed);

  // Dirichlet-like cluster profiles on the simplex.
  std::vector<std::vector<double>> centers(kClusters,
                                           std::vector<double>(kDim));
  for (auto& center : centers) {
    double sum = 0.0;
    for (double& v : center) {
      v = rng.Exponential(1.0);
      sum += v;
    }
    for (double& v : center) v /= sum;
  }

  std::vector<std::vector<double>> mus;
  mus.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const auto& center = centers[rng.UniformInt(kClusters)];
    std::vector<double> mu(kDim);
    double sum = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      mu[j] = std::max(0.0, center[j] + rng.Gaussian(0.0, kSpread *
                                                              (center[j] +
                                                               1e-3)));
      sum += mu[j];
    }
    if (sum <= 0.0) {
      mu.assign(kDim, 1.0 / static_cast<double>(kDim));
      sum = 1.0;
    }
    for (double& v : mu) v /= sum;
    mus.push_back(std::move(mu));
  }

  // Realized per-dimension spread of the means.
  std::vector<double> mean(kDim, 0.0), stddev(kDim, 0.0);
  for (const auto& mu : mus) {
    for (size_t j = 0; j < kDim; ++j) mean[j] += mu[j];
  }
  for (double& v : mean) v /= static_cast<double>(size);
  for (const auto& mu : mus) {
    for (size_t j = 0; j < kDim; ++j) {
      const double d = mu[j] - mean[j];
      stddev[j] += d * d;
    }
  }
  for (double& v : stddev) v = std::sqrt(v / static_cast<double>(size));

  PaperDataset pd;
  pd.dataset = PfvDataset(kDim);
  pd.sigma_jitter = kJitter;
  pd.sigma_base.resize(kDim);
  for (size_t j = 0; j < kDim; ++j) {
    pd.sigma_base[j] =
        rng.Uniform(kBaseLo, kBaseHi) * std::max(stddev[j], 1e-4);
  }
  for (size_t i = 0; i < size; ++i) {
    std::vector<double> sigma(kDim);
    for (size_t j = 0; j < kDim; ++j) {
      sigma[j] = std::max(1e-9, pd.sigma_base[j] *
                                    rng.Uniform(1.0 - kJitter, 1.0 + kJitter));
    }
    pd.dataset.Add(Pfv(i, std::move(mus[i]), std::move(sigma)));
  }
  // Probe images are taken under varying conditions as well.
  pd.quality_lo = 0.6;
  pd.quality_hi = 1.8;
  return pd;
}

PaperDataset GeneratePaperDataset2(size_t size, uint64_t seed) {
  constexpr size_t kDim = 10;
  constexpr size_t kClusters = 100;
  constexpr double kClusterStd = 0.09;
  // Per-dimension base uncertainty in absolute units of the [0, 1] domain;
  // like data set 1, uncertainty varies strongly per dimension (some
  // features nearly exact, some nearly useless) with a per-object jitter.
  // Set by hand for the paper's Figure 6(b)/7(right) shape: MLIQ
  // near-perfect, NN around 60%, strong index pruning (measured figures in
  // bench/README.md, "Data sets").
  constexpr double kBaseLo = 0.004;
  constexpr double kBaseHi = 0.07;
  constexpr double kJitter = 0.25;

  Rng rng(seed);
  std::vector<std::vector<double>> centers(kClusters,
                                           std::vector<double>(kDim));
  for (auto& center : centers) {
    for (double& v : center) v = rng.NextDouble();
  }

  PaperDataset pd;
  pd.dataset = PfvDataset(kDim);
  pd.sigma_jitter = kJitter;
  pd.sigma_base.resize(kDim);
  for (double& b : pd.sigma_base) b = rng.Uniform(kBaseLo, kBaseHi);

  for (size_t i = 0; i < size; ++i) {
    const auto& center = centers[rng.UniformInt(kClusters)];
    std::vector<double> mu(kDim), sigma(kDim);
    for (size_t j = 0; j < kDim; ++j) {
      mu[j] = center[j] + rng.Gaussian(0.0, kClusterStd);
      sigma[j] = std::max(1e-9, pd.sigma_base[j] *
                                    rng.Uniform(1.0 - kJitter, 1.0 + kJitter));
    }
    pd.dataset.Add(Pfv(i, std::move(mu), std::move(sigma)));
  }
  // Queries re-observe objects under varying capture conditions.
  pd.quality_lo = 0.5;
  pd.quality_hi = 2.5;
  return pd;
}

std::vector<IdentificationQuery> GeneratePaperWorkload(const PaperDataset& pd,
                                                       size_t query_count,
                                                       uint64_t seed) {
  const PfvDataset& dataset = pd.dataset;
  GAUSS_CHECK(dataset.size() > 0);
  Rng rng(seed);
  const std::vector<size_t> picks = rng.SampleWithoutReplacement(
      dataset.size(), std::min(query_count, dataset.size()));

  std::vector<IdentificationQuery> workload;
  workload.reserve(picks.size());
  for (size_t index : picks) {
    const Pfv& source = dataset[index];
    // Generative protocol: the stored observation deviates from the unknown
    // true feature vector by sigma_v, the fresh observation by sigma_q, so
    // the observed displacement between the two follows
    // N(0, sqrt(sigma_v^2 + sigma_q^2)) per dimension — precisely the joint
    // density of Lemma 1. The fresh observation's quality factor varies per
    // query (capture conditions differ between enrollment and probe).
    const double quality = rng.Uniform(pd.quality_lo, pd.quality_hi);
    std::vector<double> sigma_q = pd.DrawQuerySigmas(rng, quality);
    std::vector<double> mu(dataset.dim());
    for (size_t j = 0; j < dataset.dim(); ++j) {
      const double displacement =
          std::sqrt(source.sigma[j] * source.sigma[j] +
                    sigma_q[j] * sigma_q[j]);
      mu[j] = rng.Gaussian(source.mu[j], displacement);
    }
    IdentificationQuery iq;
    iq.query =
        Pfv(1000000000ull + source.id, std::move(mu), std::move(sigma_q));
    iq.true_id = source.id;
    workload.push_back(std::move(iq));
  }
  return workload;
}

}  // namespace gauss
