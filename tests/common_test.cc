#include <sched.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpus.h"
#include "common/log_sum_exp.h"
#include "common/random.h"
#include "common/stopwatch.h"

namespace gauss {
namespace {

TEST(UsableCpusTest, FollowsTheAffinityMask) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(UsableCpus(), static_cast<size_t>(CPU_COUNT(&allowed)));

  // A thread confined to one CPU sees one, whatever the machine has.
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  size_t confined = 0;
  std::thread([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    confined = UsableCpus();
  }).join();
  EXPECT_EQ(confined, 1u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.5, 2.25);
    EXPECT_GE(v, -3.5);
    EXPECT_LT(v, 2.25);
  }
}

TEST(RngTest, UniformIntCoversAllValuesWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 600);
    EXPECT_LT(c, n / 10 + 600);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(10);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(12);
  const auto sample = rng.SampleWithoutReplacement(100, 40);
  EXPECT_EQ(sample.size(), 40u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(13);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(LogSumExpTest, MatchesDirectSumInSafeRange) {
  LogSumExp lse;
  const std::vector<double> values = {0.5, 1.25, 2.0, 0.01};
  double direct = 0.0;
  for (double v : values) {
    lse.Add(std::log(v));
    direct += v;
  }
  EXPECT_NEAR(lse.LogTotal(), std::log(direct), 1e-12);
}

TEST(LogSumExpTest, HandlesExtremeMagnitudes) {
  LogSumExp lse;
  lse.Add(-1000.0);
  lse.Add(-1001.0);
  // log(e^-1000 + e^-1001) = -1000 + log(1 + e^-1)
  EXPECT_NEAR(lse.LogTotal(), -1000.0 + std::log1p(std::exp(-1.0)), 1e-12);
}

TEST(LogSumExpTest, DominantTermWins) {
  LogSumExp lse;
  lse.Add(-2000.0);
  lse.Add(0.0);
  EXPECT_NEAR(lse.LogTotal(), 0.0, 1e-12);
}

TEST(LogSumExpTest, EmptyIsMinusInfinity) {
  LogSumExp lse;
  EXPECT_TRUE(std::isinf(lse.LogTotal()));
  EXPECT_LT(lse.LogTotal(), 0.0);
}

TEST(LogSumExpTest, IgnoresMinusInfinityTerms) {
  LogSumExp lse;
  lse.Add(-std::numeric_limits<double>::infinity());
  lse.Add(std::log(2.0));
  EXPECT_NEAR(lse.LogTotal(), std::log(2.0), 1e-12);
}

TEST(LogSumExpTest, OrderIndependent) {
  std::vector<double> logs = {-5.0, -1.0, -300.0, -2.5, -0.1};
  LogSumExp forward, backward;
  for (double v : logs) forward.Add(v);
  std::reverse(logs.begin(), logs.end());
  for (double v : logs) backward.Add(v);
  EXPECT_NEAR(forward.LogTotal(), backward.LogTotal(), 1e-12);
}

TEST(KahanSumTest, CompensatesSmallTerms) {
  KahanSum sum;
  sum.Add(1.0);
  for (int i = 0; i < 1000000; ++i) sum.Add(1e-16);
  EXPECT_NEAR(sum.Value(), 1.0 + 1e-10, 1e-13);
}

TEST(KahanSumTest, AddSubtractRoundTrips) {
  KahanSum sum;
  Rng rng(14);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.Uniform(0.0, 1.0));
    sum.Add(values.back());
  }
  for (double v : values) sum.Subtract(v);
  EXPECT_NEAR(sum.Value(), 0.0, 1e-12);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 1000000; ++i) x = x + 1.0;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
}

TEST(CpuStopwatchTest, MeasuresCpuTime) {
  CpuStopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 1000000; ++i) x = x + 1.0;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace gauss
