#pragma once

/// \file device_set.h
/// A registry of N simulated devices, standing in for a multi-GPU host.
/// Each device owns its own worker pool (its "SMs") and its own memory
/// accounting, so sharded execution across the set genuinely models space
/// multiplexing: parts resident on different devices run concurrently and
/// one device exhausting its memory does not affect its neighbours. This is
/// the production counterpart of the paper's multiple-loading scheme
/// (Section III-D), which time-multiplexes one device over the same parts.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/result.h"
#include "sim/device.h"

namespace genie {
namespace sim {

class DeviceSet {
 public:
  struct Options {
    /// Number of devices in the set (>= 1).
    size_t num_devices = 1;
    /// Per-device options; every device of the set is configured
    /// identically (homogeneous hardware, like the paper's GPU cluster).
    Device::Options device;
  };

  static Result<std::unique_ptr<DeviceSet>> Create(const Options& options);

  size_t size() const { return devices_.size(); }
  Device* device(size_t i) {
    GENIE_DCHECK(i < devices_.size());
    return devices_[i].get();
  }
  const Device* device(size_t i) const {
    GENIE_DCHECK(i < devices_.size());
    return devices_[i].get();
  }

  /// Counters summed across all devices of the set.
  DeviceStats aggregate_stats() const;
  /// Currently allocated bytes summed across devices.
  uint64_t allocated_bytes() const;
  void ResetStats();

 private:
  explicit DeviceSet(std::vector<std::unique_ptr<Device>> devices)
      : devices_(std::move(devices)) {}

  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace sim
}  // namespace genie
