#pragma once

/// \file multi_device_engine.h
/// Space-multiplexed sharded execution: where MultiLoadEngine
/// (Section III-D) time-multiplexes one device over index parts — swapping
/// each part in per batch — this engine assigns the parts round-robin to
/// the N devices of a sim::DeviceSet and keeps every part resident on its
/// device. A query batch then executes on all devices in parallel (each
/// device runs its parts' MatchEngines back-to-back on its own worker
/// pool), and the per-part top-k sets are merged on the host exactly like
/// the multiple-loading merge, so results are identical to a single-device
/// run over the full index.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/match_engine.h"
#include "core/multi_load_engine.h"
#include "core/query.h"
#include "sim/device_set.h"

namespace genie {

/// Stage costs of a multi-device engine: per-device accumulated MatchEngine
/// stages (index transfer counts the one-time residency transfer at
/// creation) plus the host-side merge.
struct MultiDeviceProfile {
  std::vector<MatchProfile> per_device;  // indexed by device ordinal
  double merge_s = 0;

  /// All devices' stages summed, for consumers wanting one MatchProfile.
  MatchProfile Combined() const;
};

class MultiDeviceEngine {
 public:
  /// The parts must have disjoint global id ranges (validated, shared with
  /// MultiLoadEngine). Part p is assigned to device device_of_part[p] — or
  /// round-robin p % devices->size() when `device_of_part` is empty — and
  /// its index is transferred there immediately; every part must fit on its
  /// device *simultaneously* with the other parts assigned to that device,
  /// or Create fails with ResourceExhausted (the caller's signal to fall
  /// back to sequential multiple loading). A non-empty `device_of_part`
  /// must name one in-range device per part (the query planner emits
  /// volume-balanced placements). `devices` and the part indexes must
  /// outlive the engine.
  static Result<std::unique_ptr<MultiDeviceEngine>> Create(
      std::vector<IndexPart> parts, sim::DeviceSet* devices,
      const MatchEngineOptions& options,
      std::span<const uint32_t> device_of_part = {});

  /// Runs the batch on every device in parallel and merges the per-part
  /// top-k sets on the host. Not internally serialized: concurrent calls
  /// are the caller's responsibility (EngineBackend holds its own mutex).
  Result<std::vector<QueryResult>> ExecuteBatch(
      std::span<const Query> queries);

  /// Snapshot of the accumulated stage costs (per-device and merge).
  MultiDeviceProfile profile() const;

  size_t num_parts() const;
  size_t num_devices() const { return devices_->size(); }

 private:
  /// One resident part: its engine (bound to a device of the set) and the
  /// local-to-global id offset.
  struct ResidentPart {
    std::unique_ptr<MatchEngine> engine;
    ObjectId id_offset = 0;
  };

  MultiDeviceEngine(sim::DeviceSet* devices, const MatchEngineOptions& options)
      : devices_(devices), options_(options),
        device_parts_(devices->size()) {}

  sim::DeviceSet* devices_;
  MatchEngineOptions options_;
  /// device_parts_[d] = the resident parts assigned to device d.
  std::vector<std::vector<ResidentPart>> device_parts_;
  double merge_s_ = 0;
};

}  // namespace genie
