#include "sim/device_set.h"

#include <gtest/gtest.h>

namespace genie {
namespace sim {
namespace {

DeviceSet::Options SmallSet(size_t num_devices) {
  DeviceSet::Options options;
  options.num_devices = num_devices;
  options.device.num_workers = 2;
  options.device.memory_capacity_bytes = 1 << 20;
  return options;
}

TEST(DeviceSetTest, CreateRejectsZeroDevices) {
  auto set = DeviceSet::Create(SmallSet(0));
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeviceSetTest, DevicesAreIndependent) {
  auto set = DeviceSet::Create(SmallSet(3));
  ASSERT_TRUE(set.ok());
  EXPECT_EQ((*set)->size(), 3u);

  // Memory accounting is per device: filling device 0 leaves its
  // neighbours untouched.
  auto buf = DeviceBuffer<uint32_t>::Allocate((*set)->device(0), 1024);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ((*set)->device(0)->allocated_bytes(), 1024 * sizeof(uint32_t));
  EXPECT_EQ((*set)->device(1)->allocated_bytes(), 0u);
  EXPECT_EQ((*set)->device(2)->allocated_bytes(), 0u);
  EXPECT_EQ((*set)->allocated_bytes(), 1024 * sizeof(uint32_t));

  // A device's capacity limit is its own: device 1 still has full room.
  auto too_big = DeviceBuffer<uint8_t>::Allocate((*set)->device(0), 1 << 20);
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
  auto fits = DeviceBuffer<uint8_t>::Allocate((*set)->device(1), 1 << 20);
  EXPECT_TRUE(fits.ok());
}

TEST(DeviceSetTest, AggregateStatsSumAcrossDevices) {
  auto set = DeviceSet::Create(SmallSet(2));
  ASSERT_TRUE(set.ok());
  for (size_t d = 0; d < 2; ++d) {
    ASSERT_TRUE((*set)
                    ->device(d)
                    ->Launch({4, 2}, [](const ThreadCtx&) {})
                    .ok());
  }
  const DeviceStats stats = (*set)->aggregate_stats();
  EXPECT_EQ(stats.kernel_launches, 2u);
  EXPECT_EQ(stats.blocks_executed, 8u);
  EXPECT_EQ(stats.threads_executed, 16u);
  (*set)->ResetStats();
  EXPECT_EQ((*set)->aggregate_stats().kernel_launches, 0u);
}

}  // namespace
}  // namespace sim
}  // namespace genie
