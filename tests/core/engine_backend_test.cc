#include "core/engine_backend.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace genie {
namespace {

TEST(EngineBackendTest, SingleLoadWhenIndexFits) {
  auto workload = test::MakeRandomWorkload(800, 60, 6, 6, 5, 41);
  MatchEngineOptions options;
  options.k = 10;
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_FALSE((*backend)->multi_load());
  EXPECT_EQ((*backend)->num_parts(), 1u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 10));
  }
}

TEST(EngineBackendTest, FallsBackWhenIndexExceedsDeviceMemory) {
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 42);
  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 120 << 10;
  sim::Device device(small);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  // Sanity: the single-load engine cannot be built at all.
  ASSERT_FALSE(MatchEngine::Create(&workload.index, options).ok());

  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());
  EXPECT_GT((*backend)->num_parts(), 1u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5));
  }
  EXPECT_EQ(device.allocated_bytes(), 0u);
  EXPECT_GT((*backend)->profile().index_transfer_s, 0.0);
}

TEST(EngineBackendTest, FallbackDisabledSurfacesResourceExhausted) {
  auto workload = test::MakeRandomWorkload(4000, 30, 8, 4, 4, 43);
  sim::Device::Options small;
  small.num_workers = 4;
  small.memory_capacity_bytes = 120 << 10;
  sim::Device device(small);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  EngineBackendOptions backend_options;
  backend_options.allow_multi_load = false;
  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineBackendTest, ForcePartsShardsEvenWhenIndexFits) {
  auto workload = test::MakeRandomWorkload(900, 50, 6, 5, 4, 44);
  MatchEngineOptions options;
  options.k = 8;
  options.device = test::SharedTestDevice(4);
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  EngineBackendOptions backend_options;
  backend_options.force_parts = 3;
  auto backend =
      EngineBackend::Create(&workload.index, options, backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());
  EXPECT_EQ((*backend)->num_parts(), 3u);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 8));
  }
}

TEST(EngineBackendTest, RejectsEmptyBatchAndBadOptions) {
  auto workload = test::MakeRandomWorkload(200, 20, 4, 2, 3, 45);
  MatchEngineOptions options;
  options.k = 5;
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());
  auto empty = (*backend)->ExecuteBatch({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(EngineBackend::Create(nullptr, options).ok());
  options.k = 0;
  EXPECT_FALSE(EngineBackend::Create(&workload.index, options).ok());
}

TEST(EngineBackendTest, StagedEscalationReleasesRetiredIndexMemory) {
  // Regression: when a batch escalates from single load to multiple
  // loading, the retired engine's device-resident index (most of this
  // device) must be freed before the fallback runs — otherwise every part
  // count fails. The sizes mirror the failure: the index nearly fills the
  // device, and the per-batch hash-table arenas (which do not shrink with
  // the part count) exceed what remains beside it.
  auto workload = test::MakeRandomWorkload(20000, 5000, 8, 128, 8, 48);
  sim::Device::Options tight;
  tight.num_workers = 2;
  tight.memory_capacity_bytes =
      workload.index.postings_bytes() + (76 << 10);
  sim::Device device(tight);

  MatchEngineOptions options;
  options.k = 5;
  options.device = &device;
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_FALSE((*backend)->multi_load());

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_TRUE((*backend)->multi_load());

  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::TopKCountMultiset(counts, 5))
        << "query " << q;
  }
  // Between batches the multi-load tier holds nothing on the device.
  EXPECT_EQ(device.allocated_bytes(), 0u);
}

TEST(EngineBackendTest, CpqOverflowPromotesSelectorThroughThePlanner) {
  // A workload that genuinely overflows the c-PQ hash table: k above the
  // matched-object count pins AT at 1 so every matched object is promoted,
  // and the capacity cap makes the resident set unfittable. With the
  // planner on, the overflow is recorded in the cost model, the re-plan
  // promotes the batch to the overflow-immune bucket selector, and the
  // batch succeeds on the still-resident single-load tier.
  auto workload = test::MakeRandomWorkload(3000, 10, 5, 2, 8, 51);
  MatchEngineOptions options;
  options.k = 4000;
  options.ht_slack = 1;
  options.ht_capacity_cap = 256;
  options.device = test::SharedTestDevice(4);

  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_EQ((*backend)->execution_plan().selector,
            MatchEngineOptions::Selector::kCpq);

  auto results = (*backend)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_GE((*backend)->cost_model_snapshot().cpq_overflows(), 1u);
  EXPECT_EQ((*backend)->execution_plan().selector,
            MatchEngineOptions::Selector::kBucketSelect);
  // Promotion kept the index resident: no multiple-loading detour.
  EXPECT_FALSE((*backend)->multi_load());
  EXPECT_NE((*backend)->ExplainPlan().find("selector=bucket-select"),
            std::string::npos)
      << (*backend)->ExplainPlan();

  // Answers equal an explicitly bucket-select-configured backend.
  MatchEngineOptions bucket_options = options;
  bucket_options.selector = MatchEngineOptions::Selector::kBucketSelect;
  auto reference = EngineBackend::Create(&workload.index, bucket_options);
  ASSERT_TRUE(reference.ok());
  auto want = (*reference)->ExecuteBatch(workload.queries);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(results->size(), want->size());
  for (size_t q = 0; q < want->size(); ++q) {
    EXPECT_EQ(test::EntryCountMultiset((*results)[q]),
              test::EntryCountMultiset((*want)[q]))
        << "query " << q;
    EXPECT_EQ((*results)[q].threshold, (*want)[q].threshold);
  }
}

}  // namespace
}  // namespace genie
