#ifndef GAUSS_COMMON_LOG_SUM_EXP_H_
#define GAUSS_COMMON_LOG_SUM_EXP_H_

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

namespace gauss {

// Streaming log-sum-exp accumulator: computes log(sum_i exp(x_i)) without
// overflow or underflow, rescaling on the fly when a new maximum arrives.
// Used by the sequential-scan query path where the Bayes denominator is the
// sum of up to n per-object densities whose logs can easily reach +-1e3.
class LogSumExp {
 public:
  LogSumExp() = default;

  void Add(double log_value) {
    if (std::isinf(log_value) && log_value < 0) return;  // exp() == 0
    if (log_value <= max_) {
      sum_ += std::exp(log_value - max_);
    } else {
      // Rescale the running sum to the new maximum.
      sum_ = sum_ * std::exp(max_ - log_value) + 1.0;
      max_ = log_value;
    }
    ++count_;
  }

  // log(sum of accumulated values); -inf if empty.
  double LogTotal() const {
    if (count_ == 0 || sum_ == 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    return max_ + std::log(sum_);
  }

  size_t count() const { return count_; }

 private:
  double max_ = -std::numeric_limits<double>::infinity();
  double sum_ = 0.0;
  size_t count_ = 0;
};

// Kahan (compensated) summation for long chains of small linear-space terms,
// used for the incremental minSum/maxSum denominator bounds maintained by the
// Gauss-tree query algorithms (which both add and subtract contributions).
class KahanSum {
 public:
  KahanSum() = default;

  void Add(double v) {
    const double y = v - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  void Subtract(double v) { Add(-v); }

  // The same as `count` calls of Add(0.0). Once one Add(0.0) leaves the sum
  // and the compensation bit for bit unchanged, that state is a fixed point
  // and the rest are skipped; a zero added under a nonzero compensation
  // may still move the sum, so the loop runs until then.
  void AddZeros(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const double sum = sum_;
      const double compensation = compensation_;
      Add(0.0);
      if (std::memcmp(&sum, &sum_, sizeof(double)) == 0 &&
          std::memcmp(&compensation, &compensation_, sizeof(double)) == 0) {
        return;
      }
    }
  }

  double Value() const { return sum_; }

  void Reset() {
    sum_ = 0.0;
    compensation_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace gauss

#endif  // GAUSS_COMMON_LOG_SUM_EXP_H_
