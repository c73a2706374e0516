#include "core/multi_device_engine.h"

#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace genie {

MatchProfile MultiDeviceProfile::Combined() const {
  MatchProfile combined;
  for (const MatchProfile& p : per_device) combined.Accumulate(p);
  return combined;
}

Result<std::unique_ptr<MultiDeviceEngine>> MultiDeviceEngine::Create(
    std::vector<IndexPart> parts, sim::DeviceSet* devices,
    const MatchEngineOptions& options,
    std::span<const uint32_t> device_of_part) {
  if (devices == nullptr || devices->size() == 0) {
    return Status::InvalidArgument("multi-device execution needs a device set");
  }
  if (parts.empty()) {
    return Status::InvalidArgument("multi-device execution needs >= 1 part");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!device_of_part.empty()) {
    if (device_of_part.size() != parts.size()) {
      return Status::InvalidArgument(
          "device placement must name one device per part");
    }
    for (const uint32_t d : device_of_part) {
      if (d >= devices->size()) {
        return Status::InvalidArgument("device placement names device " +
                                       std::to_string(d) + " of a " +
                                       std::to_string(devices->size()) +
                                       "-device set");
      }
    }
  }
  GENIE_RETURN_NOT_OK(ValidateDisjointParts(parts));

  std::unique_ptr<MultiDeviceEngine> engine(
      new MultiDeviceEngine(devices, options));
  // Planner-supplied placement, or round-robin; engine construction
  // transfers each part's List Array to its device, where it stays
  // resident. A failure (typically ResourceExhausted on an overcommitted
  // device) unwinds the already-built engines, releasing their device
  // memory.
  for (size_t p = 0; p < parts.size(); ++p) {
    const size_t d = device_of_part.empty() ? p % devices->size()
                                            : device_of_part[p];
    MatchEngineOptions part_options = options;
    part_options.device = devices->device(d);
    GENIE_ASSIGN_OR_RETURN(
        std::unique_ptr<MatchEngine> part_engine,
        MatchEngine::Create(parts[p].index, part_options));
    engine->device_parts_[d].push_back(
        ResidentPart{std::move(part_engine), parts[p].id_offset});
  }
  return engine;
}

size_t MultiDeviceEngine::num_parts() const {
  size_t n = 0;
  for (const auto& parts : device_parts_) n += parts.size();
  return n;
}

Result<std::vector<QueryResult>> MultiDeviceEngine::ExecuteBatch(
    std::span<const Query> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  const size_t num_queries = queries.size();
  const size_t num_devices = device_parts_.size();

  // Per-device candidate pools (ids mapped to global before pooling), built
  // concurrently — one driver per device, each blocking on its own device's
  // worker pool, so devices genuinely overlap.
  std::vector<std::vector<std::vector<TopKEntry>>> device_pools(
      num_devices, std::vector<std::vector<TopKEntry>>(num_queries));
  std::vector<Status> device_status(num_devices, Status::OK());
  DefaultThreadPool()->ParallelFor(num_devices, [&](size_t d) {
    for (ResidentPart& part : device_parts_[d]) {
      auto part_results = part.engine->ExecuteBatch(queries);
      if (!part_results.ok()) {
        device_status[d] = part_results.status();
        return;
      }
      for (size_t q = 0; q < num_queries; ++q) {
        for (const TopKEntry& e : (*part_results)[q].entries) {
          device_pools[d][q].push_back(
              TopKEntry{e.id + part.id_offset, e.count});
        }
      }
    }
  });
  for (const Status& status : device_status) {
    GENIE_RETURN_NOT_OK(status);
  }

  // Host merge: pool across devices, then the shared top-k merge.
  ScopedTimer merge_timer(&merge_s_);
  std::vector<std::vector<TopKEntry>> pools(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    size_t total = 0;
    for (size_t d = 0; d < num_devices; ++d) total += device_pools[d][q].size();
    pools[q].reserve(total);
    for (size_t d = 0; d < num_devices; ++d) {
      pools[q].insert(pools[q].end(), device_pools[d][q].begin(),
                      device_pools[d][q].end());
    }
  }
  return MergeCandidatePools(std::move(pools), options_.k);
}

MultiDeviceProfile MultiDeviceEngine::profile() const {
  MultiDeviceProfile profile;
  profile.per_device.resize(device_parts_.size());
  for (size_t d = 0; d < device_parts_.size(); ++d) {
    for (const ResidentPart& part : device_parts_[d]) {
      profile.per_device[d].Accumulate(part.engine->profile());
    }
  }
  profile.merge_s = merge_s_;
  return profile;
}

}  // namespace genie
