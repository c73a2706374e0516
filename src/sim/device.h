#pragma once

/// \file device.h
/// A CUDA-like execution engine on the host, standing in for the GPU the
/// paper runs on (see DESIGN.md §2). The model mirrors the subset of CUDA
/// that GENIE's kernels use:
///
///  * a kernel is launched over a 1-D grid of blocks; blocks execute in
///    parallel (scheduled over a worker pool, like blocks over SMs) and in
///    arbitrary order;
///  * threads within a block execute the kernel body; GENIE kernels never
///    use intra-block barriers, so threads of one block run sequentially on
///    the worker that owns the block;
///  * all cross-block communication goes through atomic read-modify-write
///    operations on device memory (std::atomic), so race behaviour of the
///    c-PQ and the lock-free hash table is genuinely exercised;
///  * device memory is allocated through the Device so capacity limits and
///    host<->device transfer volumes are accounted (multiple-loading and
///    Table I/III transfer measurements).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace genie {
namespace sim {

/// Per-thread coordinates handed to a kernel body, mirroring
/// blockIdx/threadIdx/blockDim/gridDim.
struct ThreadCtx {
  uint32_t block_idx = 0;
  uint32_t thread_idx = 0;
  uint32_t block_dim = 1;
  uint32_t grid_dim = 1;

  /// Flat global thread id, `blockIdx.x * blockDim.x + threadIdx.x`.
  uint32_t global_idx() const { return block_idx * block_dim + thread_idx; }
  /// Total number of launched threads (for grid-stride loops).
  uint32_t global_size() const { return grid_dim * block_dim; }
};

struct LaunchConfig {
  uint32_t grid_dim = 1;
  uint32_t block_dim = 1;
};

/// Monotonic counters describing the device activity since the last Reset().
struct DeviceStats {
  uint64_t kernel_launches = 0;
  uint64_t blocks_executed = 0;
  uint64_t threads_executed = 0;
  uint64_t bytes_h2d = 0;
  uint64_t bytes_d2h = 0;
  uint64_t peak_allocated_bytes = 0;
  uint64_t allocated_bytes = 0;
};

class Device {
 public:
  struct Options {
    /// Number of host workers standing in for streaming multiprocessors.
    /// 0 means hardware concurrency.
    size_t num_workers = 0;
    /// Simulated global-memory capacity; allocations beyond it fail with
    /// ResourceExhausted (drives the multiple-loading path). Default mirrors
    /// the paper's GTX Titan X (12 GB).
    uint64_t memory_capacity_bytes = 12ULL << 30;
    /// Max threads per block (the paper's GPU allows up to 2048).
    uint32_t max_block_dim = 2048;
    /// When true, blocks run sequentially in block order (reproducible
    /// interleavings for debugging; concurrency tests turn this off).
    bool deterministic = false;
  };

  explicit Device(const Options& options);

  /// A process-wide default device.
  static Device* Default();

  /// Launches `kernel(ctx)` for every thread of the grid. Blocks until the
  /// kernel completes (GENIE issues dependent launches back-to-back).
  template <typename Kernel>
  Status Launch(const LaunchConfig& cfg, Kernel&& kernel) {
    GENIE_RETURN_NOT_OK(ValidateLaunch(cfg));
    if (cfg.grid_dim == 0) return Status::OK();
    auto run_block = [&](uint32_t b) {
      ThreadCtx ctx;
      ctx.block_idx = b;
      ctx.block_dim = cfg.block_dim;
      ctx.grid_dim = cfg.grid_dim;
      for (uint32_t t = 0; t < cfg.block_dim; ++t) {
        ctx.thread_idx = t;
        kernel(static_cast<const ThreadCtx&>(ctx));
      }
    };
    if (options_.deterministic || cfg.grid_dim == 1) {
      for (uint32_t b = 0; b < cfg.grid_dim; ++b) run_block(b);
    } else {
      // Blocks stay on the pool's workers (the launching host thread does
      // not participate): num_workers stands in for the GPU's SM count, so
      // block parallelism must not exceed it.
      pool_->ParallelForRange(
          cfg.grid_dim,
          [&](size_t lo, size_t hi) {
            for (size_t b = lo; b < hi; ++b) {
              run_block(static_cast<uint32_t>(b));
            }
          },
          /*caller_participates=*/false);
    }
    FinishLaunch(cfg);
    return Status::OK();
  }

  /// Memory accounting (called by DeviceBuffer).
  Status AllocateBytes(uint64_t bytes);
  void FreeBytes(uint64_t bytes);
  void RecordH2D(uint64_t bytes) { bytes_h2d_.fetch_add(bytes); }
  void RecordD2H(uint64_t bytes) { bytes_d2h_.fetch_add(bytes); }

  /// Fault injection (tests only): arms a single device-to-host copy
  /// failure. The next `after_copies` D2H copies succeed, then exactly one
  /// copy fails with `status`, after which copies succeed again. Mirrors a
  /// real cudaMemcpy error so error-propagation paths can be exercised
  /// without aborting the process.
  void InjectD2HFault(Status status, uint64_t after_copies = 0) {
    d2h_fault_status_ = std::move(status);
    d2h_fault_countdown_.store(static_cast<int64_t>(after_copies),
                               std::memory_order_release);
  }
  void ClearD2HFault() {
    d2h_fault_countdown_.store(-1, std::memory_order_release);
  }
  /// Consulted by DeviceBuffer::CopyToHost; OK unless an armed fault fires.
  Status NextD2HStatus() {
    if (d2h_fault_countdown_.load(std::memory_order_acquire) < 0) {
      return Status::OK();  // disarmed: the common fast path
    }
    if (d2h_fault_countdown_.fetch_sub(1, std::memory_order_acq_rel) == 0) {
      return d2h_fault_status_;
    }
    return Status::OK();
  }

  DeviceStats stats() const;
  void ResetStats();

  const Options& options() const { return options_; }
  uint64_t memory_capacity_bytes() const {
    return options_.memory_capacity_bytes;
  }
  uint64_t allocated_bytes() const { return allocated_bytes_.load(); }

 private:
  Status ValidateLaunch(const LaunchConfig& cfg) const;
  void FinishLaunch(const LaunchConfig& cfg);

  Options options_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<uint64_t> kernel_launches_{0};
  std::atomic<uint64_t> blocks_executed_{0};
  std::atomic<uint64_t> threads_executed_{0};
  std::atomic<uint64_t> bytes_h2d_{0};
  std::atomic<uint64_t> bytes_d2h_{0};
  std::atomic<uint64_t> allocated_bytes_{0};
  std::atomic<uint64_t> peak_allocated_bytes_{0};
  /// -1 = disarmed; >= 0 = D2H copies remaining before the armed fault
  /// fires once. The status is written before arming (release) and read
  /// only by the copy that observes the countdown hit zero (acquire).
  std::atomic<int64_t> d2h_fault_countdown_{-1};
  Status d2h_fault_status_;
};

/// Typed device-memory allocation. The backing store is host memory, but all
/// traffic to and from it flows through explicit CopyFromHost/CopyToHost so
/// transfer volume is observable, and its size counts against the device's
/// simulated capacity.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// Allocates n elements. `zero_init` = false skips the clear for buffers
  /// the kernel fully overwrites (T must be trivially constructible).
  static Result<DeviceBuffer<T>> Allocate(Device* device, size_t n,
                                          bool zero_init = true) {
    GENIE_CHECK(device != nullptr);
    GENIE_RETURN_NOT_OK(device->AllocateBytes(n * sizeof(T)));
    DeviceBuffer<T> buf;
    buf.device_ = device;
    buf.size_ = n;
    if (zero_init) {
      buf.data_ = std::make_unique<T[]>(n);  // value-initialized
    } else {
      buf.data_ = std::make_unique_for_overwrite<T[]>(n);
    }
    return buf;
  }

  ~DeviceBuffer() { Release(); }

  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      device_ = other.device_;
      data_ = std::move(other.data_);
      size_ = other.size_;
      other.device_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Raw device pointer, for use inside kernels.
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }

  Status CopyFromHost(const T* src, size_t n, size_t dst_offset = 0) {
    if (dst_offset + n > size_) {
      return Status::OutOfRange("CopyFromHost past end of device buffer");
    }
    if (n == 0) return Status::OK();  // memcpy forbids null src even for 0
    std::memcpy(data_.get() + dst_offset, src, n * sizeof(T));
    device_->RecordH2D(n * sizeof(T));
    return Status::OK();
  }
  Status CopyFromHost(const std::vector<T>& src) {
    return CopyFromHost(src.data(), src.size());
  }

  Status CopyToHost(T* dst, size_t n, size_t src_offset = 0) const {
    if (src_offset + n > size_) {
      return Status::OutOfRange("CopyToHost past end of device buffer");
    }
    if (n == 0) return Status::OK();  // memcpy forbids null dst even for 0
    GENIE_RETURN_NOT_OK(device_->NextD2HStatus());
    std::memcpy(dst, data_.get() + src_offset, n * sizeof(T));
    device_->RecordD2H(n * sizeof(T));
    return Status::OK();
  }

 private:
  void Release() {
    if (device_ != nullptr) {
      device_->FreeBytes(size_ * sizeof(T));
      device_ = nullptr;
    }
    data_.reset();
    size_ = 0;
  }

  Device* device_ = nullptr;
  std::unique_ptr<T[]> data_;
  size_t size_ = 0;
};

}  // namespace sim
}  // namespace genie
