#include "core/batch_assembler.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace genie {
namespace {

TEST(BatchAssemblerTest, DeriveFromMemoryBasics) {
  // 100 MiB free, half usable, 1 MiB per query -> 50 queries.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(100 << 20, 0, 1 << 20, 0.5), 50u);
  // Allocation eats into the free capacity.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(100 << 20, 60 << 20, 1 << 20, 0.5),
            20u);
}

TEST(BatchAssemblerTest, DeriveFromMemoryOversubscriptionClampsToOne) {
  // allocated > capacity must not underflow into a huge batch.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(4 << 20, 8 << 20, 1 << 20, 0.5),
            1u);
  // Zero per-query cost and zero free memory both stay sane.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(0, 0, 0, 0.5), 1u);
  EXPECT_GE(BatchAssembler::DeriveFromMemory(1ull << 40, 0, 0, 1.0), 1u);
  EXPECT_LE(BatchAssembler::DeriveFromMemory(1ull << 40, 0, 1, 1.0), 1u << 20);
}

TEST(BatchAssemblerTest, DeriveFromMemoryClampsFraction) {
  // Fractions outside [0, 1] are clamped, not amplified.
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(10 << 20, 0, 1 << 20, 2.0), 10u);
  EXPECT_EQ(BatchAssembler::DeriveFromMemory(10 << 20, 0, 1 << 20, -1.0), 1u);
}

TEST(BatchAssemblerTest, ResolveTargetBatchPreferenceOrder) {
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(256, 512, 1024), 256u);
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(0, 512, 1024), 512u);
  EXPECT_EQ(BatchAssembler::ResolveTargetBatch(0, 0, 1024), 1024u);
}

TEST(BatchAssemblerTest, BatchSizeForPrefersLivePlanChunkSize) {
  auto workload = test::MakeRandomWorkload(500, 60, 8, 16, 5, 91);
  MatchEngineOptions options;
  options.k = 5;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  options.device = test::SharedTestDevice(4);
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());

  const plan::ExecutionPlan plan = (*backend)->execution_plan();
  const uint32_t derived = BatchAssembler::BatchSizeFor(
      **backend, std::span<const Query>(workload.queries), 0.5);
  if (plan.planned && plan.chunk_size > 0) {
    // The fixed DeriveLargeBatchSize bug: the plan's chunk size must win
    // over the raw memory derivation.
    EXPECT_EQ(derived, plan.chunk_size);
  } else {
    EXPECT_GE(derived, 1u);
  }
}

TEST(BatchAssemblerTest, BatchSizeForFallsBackToMemoryWithoutPlan) {
  // The index nearly fills the device, so the batch's working memory does
  // not fit beside it: the batch escalates the backend to multiple loading,
  // which replaces the plan — no live plan, so the memory derivation
  // answers.
  auto workload = test::MakeRandomWorkload(20000, 5000, 8, 128, 8, 92);
  sim::Device::Options tight;
  tight.num_workers = 2;
  tight.memory_capacity_bytes = workload.index.postings_bytes() + (76 << 10);
  sim::Device device(tight);
  MatchEngineOptions options;
  options.k = 5;
  options.max_count = MatchEngine::DeriveMaxCount(workload.queries);
  options.device = &device;
  auto backend = EngineBackend::Create(&workload.index, options);
  ASSERT_TRUE(backend.ok());
  ASSERT_FALSE((*backend)->multi_load());
  ASSERT_TRUE((*backend)->ExecuteBatch(workload.queries).ok());
  ASSERT_TRUE((*backend)->multi_load());

  ASSERT_FALSE((*backend)->execution_plan().planned);
  const uint32_t derived = BatchAssembler::BatchSizeFor(
      **backend, std::span<const Query>(workload.queries), 0.5);
  const EngineBackend::BatchBudget budget = (*backend)->batch_budget();
  const uint64_t per_query = MatchEngine::DeviceBytesPerQuery(
      workload.index.num_objects(), options, options.max_count);
  EXPECT_EQ(derived,
            BatchAssembler::DeriveFromMemory(budget.capacity_bytes,
                                             budget.allocated_bytes,
                                             per_query, 0.5));
}

}  // namespace
}  // namespace genie
