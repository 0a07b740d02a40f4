#ifndef GAUSS_EVAL_REPORT_H_
#define GAUSS_EVAL_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

namespace gauss {

// Minimal fixed-width table printer for the figure-reproduction benches:
// every bench prints the rows/series the corresponding paper figure reports.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  // Convenience formatters.
  static std::string Num(double value, int precision = 1);
  static std::string Int(uint64_t value);
  static std::string Pct(double value, int precision = 1);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner.
void PrintBanner(std::ostream& os, const std::string& title);

// One serving-bench measurement cell, as consumed by the CI bench-regression
// guard (bench/check_regression.py): the benches emit these as JSON lines
// into $GAUSS_BENCH_JSON, and the guard compares them against the committed
// bench/BENCH_serving.baseline.json.
struct BenchCellMetrics {
  std::string bench;     // emitting binary, e.g. "sweep_concurrency"
  double scale = 1.0;    // GAUSS_BENCH_SCALE in effect (cells only compare
                         // against baselines recorded at the same scale)
  std::string cell;      // unique key within the bench, e.g. "workers=4,batch=512"
  double qps = 0.0;
  double p99_us = 0.0;
  double pages_per_query = 0.0;      // logical reads / query: deterministic
  double ns_per_entry = 0.0;         // micro_kernels: per-entry kernel cost
                                     // (timing metric, min-collapsed like
                                     // p99_us; 0 = not a kernel cell)
};

// Appends `m` as one JSON object line to the file named by the
// GAUSS_BENCH_JSON environment variable; no-op when the variable is unset.
// Append mode with a single write per line, so concurrently running benches
// (ctest -j) interleave whole lines, never bytes.
void AppendBenchJson(const BenchCellMetrics& m);

}  // namespace gauss

#endif  // GAUSS_EVAL_REPORT_H_
