#include "plan/cost_model.h"

#include <algorithm>
#include <cstdio>

namespace genie {
namespace plan {

namespace {

/// Weight of the newest observation in the exponentially weighted update.
/// 0.25 converges within a handful of batches without letting one outlier
/// batch (a cold cache, a scheduler hiccup) dominate the model.
constexpr double kObservationWeight = 0.25;

/// Margin shrink per ResourceExhausted escalation and its floor. Two
/// misses halve the assumed-usable memory; the floor keeps a pathological
/// device from driving planned parts to the max_parts cap forever.
constexpr double kEscalationShrink = 0.75;
constexpr double kMarginFloor = 0.25;

/// An observed selector only displaces the configured one when it is
/// decisively cheaper — a 20% margin keeps the planner from flapping
/// between selectors on measurement noise.
constexpr double kSelectorSwitchRatio = 0.8;

double Blend(double current, double observed) {
  if (observed <= 0) return current;
  if (current <= 0) return observed;
  return current * (1 - kObservationWeight) + observed * kObservationWeight;
}

}  // namespace

CostModel::CostModel() {
  // Priors in the simulator's ballpark (a few ns per posting scanned, ~µs
  // per query elsewhere). Only the ratios matter before calibration — the
  // first observed batches overwrite the scale.
  rates_.match_s_per_posting = 5e-9;
  rates_.select_s_per_query = 2e-6;
  rates_.transfer_s_per_byte = 1e-10;
  rates_.merge_s_per_query_part = 1e-6;
}

void CostModel::ObserveExecution(const MatchProfile& delta,
                                 uint64_t postings_scanned,
                                 uint32_t num_queries,
                                 MatchEngineOptions::Selector selector) {
  if (num_queries == 0) return;
  if (postings_scanned > 0 && delta.match_s > 0) {
    rates_.match_s_per_posting = Blend(
        rates_.match_s_per_posting,
        delta.match_s / static_cast<double>(postings_scanned));
  }
  if (delta.select_s > 0) {
    rates_.select_s_per_query =
        Blend(rates_.select_s_per_query, delta.select_s / num_queries);
    double& selector_rate =
        select_rate_of_selector_[static_cast<int>(selector)];
    selector_rate = Blend(selector_rate, delta.select_s / num_queries);
  }
  const uint64_t moved = delta.index_bytes + delta.query_bytes;
  const double transfer_s = delta.index_transfer_s + delta.query_transfer_s;
  if (moved > 0 && transfer_s > 0) {
    rates_.transfer_s_per_byte =
        Blend(rates_.transfer_s_per_byte,
              transfer_s / static_cast<double>(moved));
  }
  ++observations_;
}

void CostModel::ObserveMerge(double merge_s, uint32_t num_queries,
                             uint32_t parts) {
  const uint64_t query_parts = static_cast<uint64_t>(num_queries) * parts;
  if (merge_s <= 0 || query_parts == 0) return;
  rates_.merge_s_per_query_part =
      Blend(rates_.merge_s_per_query_part,
            merge_s / static_cast<double>(query_parts));
}

double CostModel::SelectRate(MatchEngineOptions::Selector selector) const {
  return select_rate_of_selector_[static_cast<int>(selector)];
}

MatchEngineOptions::Selector CostModel::PreferredSelector(
    MatchEngineOptions::Selector configured) const {
  if (configured != MatchEngineOptions::Selector::kCpq) return configured;
  if (cpq_overflows_ > 0) return MatchEngineOptions::Selector::kBucketSelect;
  const double cpq_rate = SelectRate(MatchEngineOptions::Selector::kCpq);
  const double bucket_rate =
      SelectRate(MatchEngineOptions::Selector::kBucketSelect);
  if (cpq_rate > 0 && bucket_rate > 0 &&
      bucket_rate < kSelectorSwitchRatio * cpq_rate) {
    return MatchEngineOptions::Selector::kBucketSelect;
  }
  return configured;
}

void CostModel::RecordEscalation() {
  ++escalations_;
  residency_margin_ =
      std::max(kMarginFloor, residency_margin_ * kEscalationShrink);
}

double CostModel::EstimateExecuteSeconds(uint64_t postings_scanned,
                                         uint32_t num_queries) const {
  return rates_.match_s_per_posting * static_cast<double>(postings_scanned) +
         rates_.select_s_per_query * num_queries;
}

std::string CostModel::DebugString() const {
  char buffer[256];
  std::snprintf(
      buffer, sizeof(buffer),
      "observations=%llu escalations=%u cpq_overflows=%u margin=%.2f "
      "match=%.3gs/posting select=%.3gs/query merge=%.3gs/(query*part)",
      static_cast<unsigned long long>(observations_), escalations_,
      cpq_overflows_, residency_margin_, rates_.match_s_per_posting,
      rates_.select_s_per_query, rates_.merge_s_per_query_part);
  return buffer;
}

}  // namespace plan
}  // namespace genie
