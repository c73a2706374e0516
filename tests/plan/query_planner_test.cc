#include "plan/query_planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "index/index_builder.h"
#include "plan/cost_model.h"
#include "plan/index_stats.h"
#include "test_util.h"

namespace genie {
namespace plan {
namespace {

/// First decile of the id space heavy (48 postings/object), rest light.
InvertedIndex MakeSkewedIndex(uint32_t num_objects, uint32_t vocab) {
  InvertedIndexBuilder builder(vocab);
  const uint32_t heavy_end = num_objects / 10;
  Rng rng(5151);
  for (uint32_t id = 0; id < num_objects; ++id) {
    const uint32_t len = id < heavy_end ? 48 : 4;
    std::set<Keyword> keywords;
    while (keywords.size() < len) {
      keywords.insert(static_cast<Keyword>(rng.UniformU64(vocab)));
    }
    for (Keyword kw : keywords) builder.Add(id, kw);
  }
  return std::move(builder).Build().ValueOrDie();
}

void ExpectSamePlan(const ExecutionPlan& a, const ExecutionPlan& b) {
  EXPECT_EQ(a.tier, b.tier);
  EXPECT_EQ(a.selector, b.selector);
  EXPECT_EQ(a.num_parts, b.num_parts);
  EXPECT_EQ(a.part_boundaries, b.part_boundaries);
  EXPECT_EQ(a.device_of_part, b.device_of_part);
  EXPECT_EQ(a.chunk_size, b.chunk_size);
  EXPECT_EQ(a.planned, b.planned);
  EXPECT_EQ(a.DebugString(), b.DebugString());
}

TEST(PlannerTest, SingleDeviceWhenIndexFits) {
  const IndexStats stats =
      ComputeIndexStats(test::MakeRandomWorkload(1000, 100, 6, 1, 1, 81).index);
  PlannerInputs inputs;
  inputs.capacity_bytes = 64 << 20;
  inputs.bytes_per_query = 4096;
  CostModel model;
  const ExecutionPlan plan = QueryPlanner(stats).Plan(inputs, model);
  EXPECT_EQ(plan.tier, ExecutionPlan::Tier::kSingleDevice);
  EXPECT_EQ(plan.num_parts, 1u);
  EXPECT_TRUE(plan.planned);
  EXPECT_GT(plan.chunk_size, 1u);
}

TEST(PlannerTest, MultiLoadWhenIndexExceedsMemory) {
  const IndexStats stats =
      ComputeIndexStats(test::MakeRandomWorkload(5000, 100, 8, 1, 1, 82).index);
  PlannerInputs inputs;
  // Capacity below the index volume forces time multiplexing.
  inputs.capacity_bytes = stats.total_postings * sizeof(ObjectId) / 3;
  inputs.bytes_per_query = 1024;
  CostModel model;
  const ExecutionPlan plan = QueryPlanner(stats).Plan(inputs, model);
  EXPECT_EQ(plan.tier, ExecutionPlan::Tier::kMultiLoad);
  EXPECT_GE(plan.num_parts, 2u);
  ASSERT_EQ(plan.part_boundaries.size(), plan.num_parts + 1);
  EXPECT_EQ(plan.part_boundaries.front(), 0u);
  EXPECT_EQ(plan.part_boundaries.back(), stats.num_objects);
}

TEST(PlannerTest, MultiDeviceShardsAndPlacesEveryPart) {
  const IndexStats stats = ComputeIndexStats(MakeSkewedIndex(20000, 2000));
  PlannerInputs inputs;
  inputs.capacity_bytes = 1 << 30;
  inputs.bytes_per_query = 4096;
  inputs.num_devices = 4;
  CostModel model;
  const ExecutionPlan plan = QueryPlanner(stats).Plan(inputs, model);
  EXPECT_EQ(plan.tier, ExecutionPlan::Tier::kMultiDevice);
  EXPECT_EQ(plan.num_parts, 4u);
  ASSERT_EQ(plan.device_of_part.size(), plan.num_parts);
  std::set<uint32_t> used(plan.device_of_part.begin(),
                          plan.device_of_part.end());
  EXPECT_EQ(used.size(), 4u);  // LPT spreads 4 parts over 4 devices
  for (const uint32_t d : plan.device_of_part) EXPECT_LT(d, 4u);
}

TEST(PlannerTest, GoldenPlanIsDeterministicOnSkewedData) {
  // Plan() is a pure function of (stats, model, inputs): repeated calls
  // and calls through a freshly recomputed stats object must agree field
  // for field — the property that makes plans reproducible across runs.
  const InvertedIndex index = MakeSkewedIndex(20000, 2000);
  const IndexStats stats = ComputeIndexStats(index);
  const IndexStats recomputed = ComputeIndexStats(index);
  CostModel model;
  for (uint32_t devices : {1u, 2u, 4u}) {
    PlannerInputs inputs;
    inputs.capacity_bytes = 256 << 20;
    inputs.allocated_bytes = 3 << 20;
    inputs.bytes_per_query = 8192;
    inputs.num_devices = devices;
    const ExecutionPlan first = QueryPlanner(stats).Plan(inputs, model);
    const ExecutionPlan second = QueryPlanner(stats).Plan(inputs, model);
    const ExecutionPlan third = QueryPlanner(recomputed).Plan(inputs, model);
    ExpectSamePlan(first, second);
    ExpectSamePlan(first, third);
  }
}

TEST(PlannerTest, SkewedShardsBalancedWhereUniformIsNot) {
  // The acceptance bound of the volume-balanced sharding: on the skewed
  // index a uniform object-range cut exceeds a 3x part-volume ratio while
  // the planner's boundaries stay within 1.25x.
  const IndexStats stats = ComputeIndexStats(MakeSkewedIndex(20000, 2000));
  PlannerInputs inputs;
  inputs.capacity_bytes = 1 << 30;
  inputs.bytes_per_query = 4096;
  inputs.num_devices = 4;
  CostModel model;
  const ExecutionPlan plan = QueryPlanner(stats).Plan(inputs, model);
  ASSERT_EQ(plan.tier, ExecutionPlan::Tier::kMultiDevice);
  EXPECT_LE(plan.PartVolumeRatio(stats), 1.25);

  ExecutionPlan uniform;
  uniform.num_parts = plan.num_parts;
  const uint32_t width = stats.num_objects / plan.num_parts;
  for (uint32_t p = 0; p < plan.num_parts; ++p) {
    uniform.part_boundaries.push_back(p * width);
  }
  uniform.part_boundaries.push_back(stats.num_objects);
  EXPECT_GT(uniform.PartVolumeRatio(stats), 3.0);
}

TEST(PlannerTest, EscalationsShrinkTheResidencyMargin) {
  const IndexStats stats =
      ComputeIndexStats(test::MakeRandomWorkload(4000, 100, 8, 1, 1, 83).index);
  const uint64_t volume = stats.total_postings * sizeof(ObjectId);
  PlannerInputs inputs;
  // Fits with ~25% headroom at margin 1.0, does not at margin 0.75.
  inputs.capacity_bytes = volume + volume / 4;
  inputs.bytes_per_query = 512;
  CostModel model;
  EXPECT_DOUBLE_EQ(model.residency_margin(), 1.0);
  const QueryPlanner planner(stats);
  EXPECT_EQ(planner.Plan(inputs, model).tier,
            ExecutionPlan::Tier::kSingleDevice);

  model.RecordEscalation();
  EXPECT_LT(model.residency_margin(), 1.0);
  EXPECT_EQ(model.escalations(), 1u);
  EXPECT_EQ(planner.Plan(inputs, model).tier,
            ExecutionPlan::Tier::kMultiLoad);

  // The margin is floored: many misses never drive it to zero.
  for (int i = 0; i < 32; ++i) model.RecordEscalation();
  EXPECT_GT(model.residency_margin(), 0.0);
}

TEST(PlannerTest, ForcedPartsOverrideTierSelection) {
  const IndexStats stats =
      ComputeIndexStats(test::MakeRandomWorkload(1000, 100, 6, 1, 1, 84).index);
  PlannerInputs inputs;
  inputs.capacity_bytes = 1 << 30;  // would comfortably fit single-device
  inputs.bytes_per_query = 1024;
  inputs.force_parts = 3;
  CostModel model;
  const ExecutionPlan plan = QueryPlanner(stats).Plan(inputs, model);
  EXPECT_EQ(plan.tier, ExecutionPlan::Tier::kMultiLoad);
  EXPECT_EQ(plan.num_parts, 3u);
}

TEST(PlannerTest, PreferredSelectorHonorsConfigAndOverflowSignal) {
  CostModel model;
  using Selector = MatchEngineOptions::Selector;
  // No signals yet: the configured selector stands.
  EXPECT_EQ(model.PreferredSelector(Selector::kCpq), Selector::kCpq);
  EXPECT_EQ(model.cpq_overflows(), 0u);

  // One hash-table overflow is decisive: the c-PQ select stage is unsafe
  // on this workload, so a kCpq configuration promotes to bucket select.
  model.RecordCpqOverflow();
  EXPECT_EQ(model.cpq_overflows(), 1u);
  EXPECT_EQ(model.PreferredSelector(Selector::kCpq), Selector::kBucketSelect);
  // Overflows are not memory-estimate misses: the residency margin holds.
  EXPECT_DOUBLE_EQ(model.residency_margin(), 1.0);
  EXPECT_EQ(model.escalations(), 0u);

  // Explicit non-default configurations are never overridden.
  EXPECT_EQ(model.PreferredSelector(Selector::kCountTableSpq),
            Selector::kCountTableSpq);
  EXPECT_EQ(model.PreferredSelector(Selector::kBucketSelect),
            Selector::kBucketSelect);
}

TEST(PlannerTest, PreferredSelectorPromotesOnDecisivelyCheaperRate) {
  using Selector = MatchEngineOptions::Selector;
  const auto observe = [](CostModel* model, Selector selector,
                          double select_s) {
    MatchProfile delta;
    delta.select_s = select_s;
    model->ObserveExecution(delta, /*postings_scanned=*/0,
                            /*num_queries=*/64, selector);
  };

  CostModel close;
  observe(&close, Selector::kCpq, 1.0);
  observe(&close, Selector::kBucketSelect, 0.9);
  EXPECT_GT(close.SelectRate(Selector::kCpq), 0.0);
  EXPECT_GT(close.SelectRate(Selector::kBucketSelect), 0.0);
  EXPECT_EQ(close.SelectRate(Selector::kCountTableSpq), 0.0);
  // Within the 20% hysteresis band: no flapping onto the marginal winner.
  EXPECT_EQ(close.PreferredSelector(Selector::kCpq), Selector::kCpq);

  CostModel decisive;
  observe(&decisive, Selector::kCpq, 1.0);
  observe(&decisive, Selector::kBucketSelect, 0.5);
  EXPECT_EQ(decisive.PreferredSelector(Selector::kCpq),
            Selector::kBucketSelect);

  // One-sided observations never promote: both rates must be measured.
  CostModel one_sided;
  observe(&one_sided, Selector::kCpq, 1.0);
  EXPECT_EQ(one_sided.PreferredSelector(Selector::kCpq), Selector::kCpq);
}

TEST(PlannerTest, PlanCarriesThePreferredSelector) {
  using Selector = MatchEngineOptions::Selector;
  const IndexStats stats =
      ComputeIndexStats(test::MakeRandomWorkload(1000, 100, 6, 1, 1, 85).index);
  PlannerInputs inputs;
  inputs.capacity_bytes = 64 << 20;
  inputs.bytes_per_query = 4096;

  CostModel model;
  const QueryPlanner planner(stats);
  EXPECT_EQ(planner.Plan(inputs, model).selector, Selector::kCpq);

  model.RecordCpqOverflow();
  const ExecutionPlan promoted = planner.Plan(inputs, model);
  EXPECT_EQ(promoted.selector, Selector::kBucketSelect);
  EXPECT_NE(promoted.DebugString().find("selector=bucket-select"),
            std::string::npos)
      << promoted.DebugString();

  // An explicitly configured selector rides through the overflowed model.
  inputs.selector = Selector::kCountTableSpq;
  EXPECT_EQ(planner.Plan(inputs, model).selector, Selector::kCountTableSpq);
}

TEST(PlannerTest, ObservationsCalibrateTheCostModel) {
  CostModel model;
  EXPECT_EQ(model.observations(), 0u);
  const double prior_estimate = model.EstimateExecuteSeconds(1000000, 64);
  MatchProfile delta;
  delta.match_s = 0.5;
  delta.select_s = 0.05;
  delta.query_transfer_s = 0.02;
  model.ObserveExecution(delta, /*postings_scanned=*/1000000,
                         /*num_queries=*/64);
  EXPECT_EQ(model.observations(), 1u);
  // The blended rate moved toward the (much slower) measured machine.
  EXPECT_GT(model.EstimateExecuteSeconds(1000000, 64), prior_estimate);
}

}  // namespace
}  // namespace plan
}  // namespace genie
