#include "eval/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"

namespace gauss {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  GAUSS_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string Table::Int(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string Table::Pct(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", precision, value);
  return buffer;
}

void Table::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << " |\n";
  };
  print_row(headers_);
  os << '|';
  for (size_t c = 0; c < headers_.size(); ++c) {
    for (size_t i = 0; i < widths[c] + 2; ++i) os << '-';
    os << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

void PrintBanner(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

void AppendBenchJson(const BenchCellMetrics& m) {
  const char* path = std::getenv("GAUSS_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* file = std::fopen(path, "a");
  if (file == nullptr) return;  // metrics are best-effort, never fatal
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"%s\",\"scale\":%.6g,\"cell\":\"%s\","
                "\"qps\":%.6g,\"p99_us\":%.6g,\"pages_per_query\":%.6g,"
                "\"ns_per_entry\":%.6g}\n",
                m.bench.c_str(), m.scale, m.cell.c_str(), m.qps, m.p99_us,
                m.pages_per_query, m.ns_per_entry);
  std::fputs(line, file);
  std::fclose(file);
}

}  // namespace gauss
