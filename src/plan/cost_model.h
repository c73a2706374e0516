#pragma once

/// \file cost_model.h
/// The "how fast is this machine" half of the query planner: per-stage cost
/// rates (seconds per posting scanned, per query selected, per byte moved)
/// seeded with priors and calibrated online from the measured MatchProfile
/// deltas the backend already collects. ResourceExhausted escalations feed
/// back as a shrinking residency margin, so a machine whose memory estimates
/// proved optimistic plans more conservatively from then on — the
/// try-and-escalate path becomes training data instead of the decision
/// maker.

#include <cstdint>
#include <string>

#include "core/match_engine.h"

namespace genie {
namespace plan {

/// Calibrated seconds-per-unit-of-work rates. Exposed as a plain struct so
/// tests and ExplainPlan can read the model state.
struct StageCostRates {
  double match_s_per_posting = 0;
  double select_s_per_query = 0;
  double transfer_s_per_byte = 0;
  double merge_s_per_query_part = 0;
};

/// Not internally synchronized: EngineBackend owns one and serializes all
/// observation/estimation under its own mutex.
class CostModel {
 public:
  CostModel();

  /// Folds one executed batch's measured stage costs into the rates
  /// (exponentially weighted, so drifting load conditions re-calibrate).
  /// `postings_scanned` is the match work volume behind `delta.match_s`;
  /// `selector` is the select stage the batch actually ran, so the model
  /// keeps one select rate per selector alongside the blended aggregate.
  void ObserveExecution(const MatchProfile& delta, uint64_t postings_scanned,
                        uint32_t num_queries,
                        MatchEngineOptions::Selector selector =
                            MatchEngineOptions::Selector::kCpq);

  /// Folds one host-merge observation (multi-part tiers).
  void ObserveMerge(double merge_s, uint32_t num_queries, uint32_t parts);

  /// A memory-estimate miss (ResourceExhausted where the plan said "fits"):
  /// shrinks the residency margin multiplicatively, so the next plan
  /// assumes proportionally less usable memory.
  void RecordEscalation();

  /// A c-PQ hash-table overflow (Theorem 3.1's capacity bound violated by
  /// the workload): distinct from a memory-estimate miss — it does not
  /// shrink the residency margin, it tells the planner the configured
  /// selector's select stage is unsafe on this workload.
  void RecordCpqOverflow() { ++cpq_overflows_; }
  uint32_t cpq_overflows() const { return cpq_overflows_; }

  /// Observed select-stage seconds per query for one selector; 0 until a
  /// batch has run under it.
  double SelectRate(MatchEngineOptions::Selector selector) const;

  /// The selector the planner should schedule given the caller's configured
  /// base selector. Explicit non-default configurations (kCountTableSpq,
  /// kBucketSelect) are honored as-is; a kCpq configuration is promoted to
  /// kBucketSelect once an overflow has been recorded (bucket selection has
  /// no hash table to overflow) or once both selectors have observed rates
  /// and bucket selection is decisively cheaper.
  MatchEngineOptions::Selector PreferredSelector(
      MatchEngineOptions::Selector configured) const;

  /// Fraction of device memory the planner may assume usable (1.0 until
  /// the first escalation, floored so the model never plans with zero).
  double residency_margin() const { return residency_margin_; }
  uint32_t escalations() const { return escalations_; }
  /// Executed batches folded in so far (0 = rates are still the priors).
  uint64_t observations() const { return observations_; }

  const StageCostRates& rates() const { return rates_; }

  /// Predicted execute-stage seconds of a batch: match over
  /// `postings_scanned` plus selection of `num_queries` queries.
  double EstimateExecuteSeconds(uint64_t postings_scanned,
                                uint32_t num_queries) const;

  std::string DebugString() const;

 private:
  StageCostRates rates_;
  /// Observed select s/query indexed by MatchEngineOptions::Selector.
  double select_rate_of_selector_[3] = {0, 0, 0};
  double residency_margin_ = 1.0;
  uint32_t escalations_ = 0;
  uint32_t cpq_overflows_ = 0;
  uint64_t observations_ = 0;
};

}  // namespace plan
}  // namespace genie
