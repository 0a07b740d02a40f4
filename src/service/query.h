#ifndef GAUSS_SERVICE_QUERY_H_
#define GAUSS_SERVICE_QUERY_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <variant>

#include "common/macros.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "pfv/pfv.h"

namespace gauss {

enum class QueryKind : uint8_t { kMliq = 0, kTiq = 1 };

// Execution-start deadline of a query (steady clock, so it is immune to
// wall-clock adjustments): enforced at admission and again when a worker
// picks the query up — a query that has already begun executing runs to
// completion rather than discarding computed work. See
// Query::Deadline()/DeadlineAfter().
using QueryDeadline = std::chrono::steady_clock::time_point;

// One identification query, ready for submission to a serving Session or
// QueryService: the probe pfv plus the parameters of exactly one query kind.
//
// The descriptor is variant-backed — an MLIQ query physically cannot carry a
// TIQ threshold and vice versa (the old kind-tagged QueryRequest carried both
// option sets with half the fields dead). Construct through the factories and
// refine fluently:
//
//   Query::Mliq(probe, /*k=*/3).Accuracy(1e-2)
//   Query::Tiq(probe, /*threshold=*/0.2).ExactMembership(false)
//   Query::Mliq(probe, 1).DeadlineAfter(std::chrono::milliseconds(5))
//
// A query with a deadline participates in admission control: it is shed
// (QueryResponse::Status::kShed) instead of waiting when the service queue is
// full, and reports kDeadlineExceeded instead of *starting* execution once
// the deadline has passed (an execution already underway runs to
// completion). Queries without a deadline block on the full queue — classic
// backpressure — and always execute.
class Query {
 public:
  // k-most-likely identification (paper Definition 3).
  static Query Mliq(Pfv q, size_t k, MliqOptions options = {}) {
    Query query;
    query.pfv_ = std::move(q);
    query.params_ = MliqParams{k, options};
    return query;
  }

  // Threshold identification: everyone with P(v|q) >= threshold (paper
  // Definition 2).
  static Query Tiq(Pfv q, double threshold, TiqOptions options = {}) {
    Query query;
    query.pfv_ = std::move(q);
    query.params_ = TiqParams{threshold, options};
    return query;
  }

  // ---- Fluent refinements (each returns the query for chaining). ----------

  // Relative accuracy of the reported probabilities. For TIQ this also turns
  // on probability refinement (reporting values at a requested accuracy is
  // exactly what TiqOptions::refine_probabilities gates).
  Query& Accuracy(double probability_accuracy) & {
    if (auto* m = std::get_if<MliqParams>(&params_)) {
      m->options.probability_accuracy = probability_accuracy;
    } else {
      TiqParams& t = std::get<TiqParams>(params_);
      t.options.probability_accuracy = probability_accuracy;
      t.options.refine_probabilities = true;
    }
    return *this;
  }
  Query&& Accuracy(double probability_accuracy) && {
    return std::move(this->Accuracy(probability_accuracy));
  }

  // Whether probabilities are refined to the requested accuracy (MLIQ
  // default: true; TIQ default: false).
  Query& RefineProbabilities(bool refine) & {
    if (auto* m = std::get_if<MliqParams>(&params_)) {
      m->options.refine_probabilities = refine;
    } else {
      std::get<TiqParams>(params_).options.refine_probabilities = refine;
    }
    return *this;
  }
  Query&& RefineProbabilities(bool refine) && {
    return std::move(this->RefineProbabilities(refine));
  }

  // TIQ only: exact result-set membership vs the paper's lazier stopping
  // rule (see TiqOptions::exact_membership). Aborts on an MLIQ query — the
  // option does not exist there, and silently ignoring it would hide a bug.
  Query& ExactMembership(bool exact) & {
    GAUSS_CHECK_MSG(kind() == QueryKind::kTiq,
                    "ExactMembership is a TIQ option");
    std::get<TiqParams>(params_).options.exact_membership = exact;
    return *this;
  }
  Query&& ExactMembership(bool exact) && {
    return std::move(this->ExactMembership(exact));
  }

  // Absolute target for the traversal's scaled denominator gap, applied
  // after the (possibly disabled) relative refinement phase; < 0 disables
  // (see MliqOptions::denominator_target_gap). A shard coordinator sets this
  // per shard to make refinement cost proportional to the shard's share of
  // the combined denominator interval.
  Query& DenominatorTargetGap(double gap) & {
    if (auto* m = std::get_if<MliqParams>(&params_)) {
      m->options.denominator_target_gap = gap;
    } else {
      std::get<TiqParams>(params_).options.denominator_target_gap = gap;
    }
    return *this;
  }
  Query&& DenominatorTargetGap(double gap) && {
    return std::move(this->DenominatorTargetGap(gap));
  }

  // MLIQ only: absolute log-density floor certified to be met by >= k
  // objects fleet-wide; phase 1 stops once no subtree can strictly beat it
  // (see MliqOptions::density_floor_log). Set by a shard coordinator from
  // its per-shard sketches; -inf (the default) disables.
  Query& DensityFloorLog(double floor_log) & {
    std::get<MliqParams>(params_).options.density_floor_log = floor_log;
    return *this;
  }
  Query&& DensityFloorLog(double floor_log) && {
    return std::move(this->DensityFloorLog(floor_log));
  }

  // TIQ only: external lower bound on the combined denominator in the
  // shard's reference scale (see TiqOptions::denominator_floor). Set by a
  // shard coordinator from its per-shard sketches; 0 (the default)
  // disables.
  Query& DenominatorFloor(double floor) & {
    std::get<TiqParams>(params_).options.denominator_floor = floor;
    return *this;
  }
  Query&& DenominatorFloor(double floor) && {
    return std::move(this->DenominatorFloor(floor));
  }

  // Execution-start deadline (admission control; see class comment).
  Query& Deadline(QueryDeadline deadline) & {
    deadline_ = deadline;
    return *this;
  }
  Query&& Deadline(QueryDeadline deadline) && {
    return std::move(this->Deadline(deadline));
  }

  // Deadline relative to now.
  template <typename Rep, typename Period>
  Query& DeadlineAfter(std::chrono::duration<Rep, Period> budget) & {
    return Deadline(std::chrono::steady_clock::now() + budget);
  }
  template <typename Rep, typename Period>
  Query&& DeadlineAfter(std::chrono::duration<Rep, Period> budget) && {
    return std::move(this->DeadlineAfter(budget));
  }

  // ---- Accessors. ---------------------------------------------------------

  QueryKind kind() const {
    return std::holds_alternative<MliqParams>(params_) ? QueryKind::kMliq
                                                       : QueryKind::kTiq;
  }
  const Pfv& pfv() const { return pfv_; }

  bool has_deadline() const { return deadline_.has_value(); }
  QueryDeadline deadline() const { return *deadline_; }

  // Kind-specific parameters; std::get fails loudly (bad_variant_access)
  // when asked for the wrong kind.
  size_t k() const { return std::get<MliqParams>(params_).k; }
  const MliqOptions& mliq_options() const {
    return std::get<MliqParams>(params_).options;
  }
  double threshold() const { return std::get<TiqParams>(params_).threshold; }
  const TiqOptions& tiq_options() const {
    return std::get<TiqParams>(params_).options;
  }

 private:
  // No default member initializers: the factories set every field, and NSDMIs
  // in a nested class would delete the enclosing class's defaulted default
  // constructor while Query is still incomplete (GCC).
  struct MliqParams {
    size_t k;
    MliqOptions options;
  };
  struct TiqParams {
    double threshold;
    TiqOptions options;
  };

  Query() = default;

  Pfv pfv_;
  std::variant<MliqParams, TiqParams> params_;
  std::optional<QueryDeadline> deadline_;
};

}  // namespace gauss

#endif  // GAUSS_SERVICE_QUERY_H_
