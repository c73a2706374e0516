#include "sim/device_set.h"

namespace genie {
namespace sim {

Result<std::unique_ptr<DeviceSet>> DeviceSet::Create(const Options& options) {
  if (options.num_devices == 0) {
    return Status::InvalidArgument("a device set needs >= 1 device");
  }
  std::vector<std::unique_ptr<Device>> devices;
  devices.reserve(options.num_devices);
  for (size_t d = 0; d < options.num_devices; ++d) {
    devices.push_back(std::make_unique<Device>(options.device));
  }
  return std::unique_ptr<DeviceSet>(new DeviceSet(std::move(devices)));
}

DeviceStats DeviceSet::aggregate_stats() const {
  DeviceStats total;
  for (const auto& device : devices_) {
    const DeviceStats s = device->stats();
    total.kernel_launches += s.kernel_launches;
    total.blocks_executed += s.blocks_executed;
    total.threads_executed += s.threads_executed;
    total.bytes_h2d += s.bytes_h2d;
    total.bytes_d2h += s.bytes_d2h;
    total.allocated_bytes += s.allocated_bytes;
    total.peak_allocated_bytes += s.peak_allocated_bytes;
  }
  return total;
}

uint64_t DeviceSet::allocated_bytes() const {
  uint64_t total = 0;
  for (const auto& device : devices_) total += device->allocated_bytes();
  return total;
}

void DeviceSet::ResetStats() {
  for (const auto& device : devices_) device->ResetStats();
}

}  // namespace sim
}  // namespace genie
