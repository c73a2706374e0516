#include "sim/device.h"

#include <algorithm>
#include <thread>

namespace genie {
namespace sim {

Device::Device(const Options& options) : options_(options) {
  size_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(workers);
}

Device* Device::Default() {
  static Device* device = new Device(Options{});
  return device;
}

Status Device::ValidateLaunch(const LaunchConfig& cfg) const {
  if (cfg.block_dim == 0) {
    return Status::InvalidArgument("block_dim must be >= 1");
  }
  if (cfg.block_dim > options_.max_block_dim) {
    return Status::InvalidArgument("block_dim exceeds device limit");
  }
  return Status::OK();
}

void Device::FinishLaunch(const LaunchConfig& cfg) {
  kernel_launches_.fetch_add(1);
  blocks_executed_.fetch_add(cfg.grid_dim);
  threads_executed_.fetch_add(static_cast<uint64_t>(cfg.grid_dim) *
                              cfg.block_dim);
}

Status Device::AllocateBytes(uint64_t bytes) {
  uint64_t current = allocated_bytes_.load();
  while (true) {
    if (current + bytes > options_.memory_capacity_bytes) {
      return Status::ResourceExhausted(
          "device memory capacity exceeded (multiple loading required)");
    }
    if (allocated_bytes_.compare_exchange_weak(current, current + bytes)) {
      break;
    }
  }
  uint64_t now = current + bytes;
  uint64_t peak = peak_allocated_bytes_.load();
  while (now > peak && !peak_allocated_bytes_.compare_exchange_weak(peak, now)) {
  }
  return Status::OK();
}

void Device::FreeBytes(uint64_t bytes) {
  allocated_bytes_.fetch_sub(bytes);
}

DeviceStats Device::stats() const {
  DeviceStats s;
  s.kernel_launches = kernel_launches_.load();
  s.blocks_executed = blocks_executed_.load();
  s.threads_executed = threads_executed_.load();
  s.bytes_h2d = bytes_h2d_.load();
  s.bytes_d2h = bytes_d2h_.load();
  s.allocated_bytes = allocated_bytes_.load();
  s.peak_allocated_bytes = peak_allocated_bytes_.load();
  return s;
}

void Device::ResetStats() {
  kernel_launches_ = 0;
  blocks_executed_ = 0;
  threads_executed_ = 0;
  bytes_h2d_ = 0;
  bytes_d2h_ = 0;
  peak_allocated_bytes_ = allocated_bytes_.load();
}

}  // namespace sim
}  // namespace genie
