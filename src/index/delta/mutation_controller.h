#pragma once

/// \file mutation_controller.h
/// Orchestrates the mutable layer behind one engine: owns the DeltaStore,
/// validates and applies Insert/Remove, and runs the background compaction
/// thread that folds delta+main into a fresh immutable index and hot-swaps
/// it behind the EngineBackend (under the backend mutex, so in-flight
/// streams never pause — their next batch runs on the new index).
///
/// Lock hierarchy (never acquired in reverse): the controller's state
/// mutex -> the backend's mutex -> the DeltaStore's internal mutex. The
/// search hot path takes only the latter two; Insert/Remove/Flush/Save
/// serialize on the state mutex.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "common/result.h"
#include "core/engine_backend.h"
#include "index/delta/delta_store.h"
#include "index/index_builder.h"

namespace genie {
namespace delta {

struct MutationOptions {
  /// Objects per delta segment before the active segment auto-seals.
  uint32_t seal_threshold = 128;
  /// Sealed segments that trigger a background compaction; 0 disables the
  /// automatic trigger (Flush still compacts).
  uint32_t auto_compact_segments = 4;
  /// Build options for the compacted index rebuild (keeps the caller's
  /// load-balance splitting).
  IndexBuildOptions build;
};

/// Counters for observability and the mutation bench.
struct MutationStats {
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t compactions = 0;
  /// Wall seconds of the last compaction's off-line rebuild (no locks held).
  double last_compact_seconds = 0;
  /// Wall seconds the last compaction commit held the state lock (the only
  /// window in which mutations — never searches — stall).
  double last_pause_seconds = 0;
};

class MutationController {
 public:
  /// `backend` must outlive the controller; the controller attaches its
  /// DeltaStore to it. `base_num_objects` seeds the id watermark (the
  /// frozen index's id space, or a restored bundle's watermark via
  /// DeltaStore::Restore).
  MutationController(EngineBackend* backend, ObjectId base_num_objects,
                     const MutationOptions& options);
  ~MutationController();

  MutationController(const MutationController&) = delete;
  MutationController& operator=(const MutationController&) = delete;

  /// Appends one object; returns its id. `on_inserted` (may be empty) runs
  /// under the state lock right after the id is assigned — modality layers
  /// use it to append the object's side data (rerank rows, verify
  /// sequences) atomically with the id assignment.
  ObjectId Insert(std::span<const Keyword> keywords,
                  const std::function<void(ObjectId)>& on_inserted = {});

  /// Tombstones `id`. InvalidArgument when the id was never assigned or is
  /// already tombstoned.
  Status Remove(ObjectId id);

  /// Seals the active segment and synchronously runs a compaction pass
  /// begun after this call: on return every prior mutation is folded into
  /// the (swapped) main index and the delta layer is empty.
  Status Flush();

  /// Stops mutations and compaction commits for the guard's lifetime, with
  /// the active segment sealed — the window in which Save serializes a
  /// consistent (main index, delta snapshot) pair. Searches keep running.
  class Pause {
   public:
    explicit Pause(std::unique_lock<std::mutex> lock)
        : lock_(std::move(lock)) {}

   private:
    std::unique_lock<std::mutex> lock_;
  };
  Pause PauseMutation();

  DeltaStore* delta_store() { return &delta_; }
  const DeltaStore* delta_store() const { return &delta_; }
  ObjectId next_id() const { return delta_.next_id(); }
  MutationStats stats() const;

 private:
  void WorkerLoop();
  /// One compaction pass: seal + snapshot + current main under the state
  /// lock, rebuild outside all locks, then swap + prune atomically.
  Status CompactOnce();

  EngineBackend* backend_;
  MutationOptions options_;
  DeltaStore delta_;

  mutable std::mutex state_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  bool compact_requested_ = false;
  uint64_t passes_started_ = 0;
  uint64_t passes_finished_ = 0;
  Status last_compact_status_;
  MutationStats stats_;
  std::thread worker_;
};

}  // namespace delta
}  // namespace genie
