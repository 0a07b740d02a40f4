#include <sstream>

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "pfv/pfv_file.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

TEST(MetricsTest, PerfectRetrievalAtScaleOne) {
  const std::vector<std::vector<uint64_t>> retrieved = {{1}, {2}, {3}};
  const std::vector<uint64_t> truth = {1, 2, 3};
  const PrecisionRecall pr = EvaluateAtScale(retrieved, truth, 1);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
}

TEST(MetricsTest, RecallGrowsPrecisionFallsWithScale) {
  // Correct answers at rank 3: scale 1 finds nothing, scale 3 everything.
  const std::vector<std::vector<uint64_t>> retrieved = {{9, 8, 1}, {7, 6, 2}};
  const std::vector<uint64_t> truth = {1, 2};
  const PrecisionRecall at_1 = EvaluateAtScale(retrieved, truth, 1);
  EXPECT_DOUBLE_EQ(at_1.recall, 0.0);
  EXPECT_DOUBLE_EQ(at_1.precision, 0.0);
  const PrecisionRecall at_3 = EvaluateAtScale(retrieved, truth, 3);
  EXPECT_DOUBLE_EQ(at_3.recall, 1.0);
  EXPECT_NEAR(at_3.precision, 2.0 / 6.0, 1e-12);
}

TEST(MetricsTest, PrecisionEqualsRecallOverScaleForSingleTruth) {
  const std::vector<std::vector<uint64_t>> retrieved = {{1, 10, 11, 12},
                                                        {20, 2, 21, 22}};
  const std::vector<uint64_t> truth = {1, 2};
  for (size_t x = 1; x <= 4; ++x) {
    const PrecisionRecall pr = EvaluateAtScale(retrieved, truth, x);
    EXPECT_NEAR(pr.precision, pr.recall / static_cast<double>(x), 1e-12);
  }
}

TEST(MetricsTest, ShortListsHandled) {
  const std::vector<std::vector<uint64_t>> retrieved = {{1}, {}};
  const std::vector<uint64_t> truth = {1, 2};
  const PrecisionRecall pr = EvaluateAtScale(retrieved, truth, 5);
  EXPECT_DOUBLE_EQ(pr.recall, 0.5);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);  // 1 hit / 1 retrieved in total
}

TEST(MetricsTest, MeanReciprocalRank) {
  const std::vector<std::vector<uint64_t>> retrieved = {{1, 5}, {5, 2}, {7, 8}};
  const std::vector<uint64_t> truth = {1, 2, 3};
  // ranks: 1, 2, absent -> (1 + 0.5 + 0)/3.
  EXPECT_NEAR(MeanReciprocalRank(retrieved, truth), 0.5, 1e-12);
}

TEST(ExperimentTest, RunMethodAggregatesCosts) {
  InMemoryPageDevice device(1024);
  ShardedBufferPool pool(&device, 8, /*num_shards=*/1);
  PfvFile file(&pool, 2);
  for (uint64_t i = 0; i < 100; ++i) {
    file.Append(Pfv(i, {0.1, 0.2}, {0.05, 0.05}));
  }
  DiskModel disk;

  const MethodCosts costs = RunMethod(
      "scan", &pool, disk, 4, CachePolicy::kColdPerQuery,
      AccessPattern::kSequential, [&](size_t) {
        size_t count = 0;
        file.ForEach([&](const Pfv&) { ++count; });
        return count;
      });

  EXPECT_EQ(costs.query_count, 4u);
  // Cold per query: every query physically reads every page.
  EXPECT_EQ(costs.mean.physical_pages, file.page_count());
  EXPECT_EQ(costs.mean.logical_pages, file.page_count());
  EXPECT_GT(costs.mean.io_seconds, 0.0);
  EXPECT_GE(costs.mean.overall_seconds, costs.mean.io_seconds);
  EXPECT_EQ(costs.mean.result_size, 100u);
}

TEST(ExperimentTest, WarmCacheReducesPhysicalReads) {
  InMemoryPageDevice device(1024);
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  PfvFile file(&pool, 2);
  for (uint64_t i = 0; i < 200; ++i) {
    file.Append(Pfv(i, {0.1, 0.2}, {0.05, 0.05}));
  }
  DiskModel disk;
  auto scan_all = [&](size_t) {
    size_t count = 0;
    file.ForEach([&](const Pfv&) { ++count; });
    return count;
  };

  const MethodCosts cold = RunMethod("cold", &pool, disk, 4,
                                     CachePolicy::kColdPerQuery,
                                     AccessPattern::kSequential, scan_all);
  const MethodCosts warm = RunMethod("warm", &pool, disk, 4,
                                     CachePolicy::kColdAtStart,
                                     AccessPattern::kSequential, scan_all);
  EXPECT_LT(warm.mean.physical_pages, cold.mean.physical_pages);
  EXPECT_EQ(warm.mean.logical_pages, cold.mean.logical_pages);
}

TEST(ExperimentTest, PercentArithmetic) {
  MethodCosts base, method;
  base.mean.physical_pages = 200;
  base.mean.cpu_seconds = 0.1;
  base.mean.overall_seconds = 0.4;
  method.mean.physical_pages = 50;
  method.mean.cpu_seconds = 0.025;
  method.mean.overall_seconds = 0.2;
  EXPECT_DOUBLE_EQ(method.PagesPercentOf(base), 25.0);
  EXPECT_DOUBLE_EQ(method.CpuPercentOf(base), 25.0);
  EXPECT_DOUBLE_EQ(method.OverallPercentOf(base), 50.0);
}

TEST(ReportTest, TableRendersAllCells) {
  Table table({"method", "pages", "cpu"});
  table.AddRow({"G-Tree", Table::Int(42), Table::Pct(23.5)});
  table.AddRow({"Seq. File", Table::Int(178), Table::Pct(100.0)});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("G-Tree"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("23.5%"), std::string::npos);
  EXPECT_NE(out.find("Seq. File"), std::string::npos);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Int(7), "7");
  EXPECT_EQ(Table::Pct(99.94, 1), "99.9%");
}

}  // namespace
}  // namespace gauss
