#include "index/delta/mutation_controller.h"

#include <chrono>
#include <utility>

#include "index/delta/compaction.h"

namespace genie {
namespace delta {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

MutationController::MutationController(EngineBackend* backend,
                                       ObjectId base_num_objects,
                                       const MutationOptions& options)
    : backend_(backend),
      options_(options),
      delta_(base_num_objects, options.seal_threshold) {
  backend_->AttachDeltaStore(&delta_);
  worker_ = std::thread([this] { WorkerLoop(); });
}

MutationController::~MutationController() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

ObjectId MutationController::Insert(
    std::span<const Keyword> keywords,
    const std::function<void(ObjectId)>& on_inserted) {
  bool request_compact = false;
  ObjectId id = kInvalidObjectId;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    id = delta_.Insert(keywords);
    if (on_inserted) on_inserted(id);
    ++stats_.inserts;
    request_compact = options_.auto_compact_segments > 0 &&
                      delta_.num_sealed() >= options_.auto_compact_segments;
    if (request_compact) compact_requested_ = true;
  }
  // The new object is visible to every subsequent search (delta overlay),
  // so cached serving-layer answers are stale from this point on.
  backend_->BumpDataGeneration();
  if (request_compact) work_cv_.notify_all();
  return id;
}

Status MutationController::Remove(ObjectId id) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (id >= delta_.next_id()) {
    return Status::InvalidArgument("cannot remove: id was never assigned");
  }
  if (!delta_.Remove(id)) {
    return Status::InvalidArgument("cannot remove: id is already removed");
  }
  ++stats_.removes;
  // Tombstoned ids disappear from all subsequent results immediately.
  backend_->BumpDataGeneration();
  return Status::OK();
}

Status MutationController::Flush() {
  std::unique_lock<std::mutex> lock(state_mu_);
  delta_.Seal();
  // Wait for a pass that *begins* after this point: a pass already running
  // snapshotted before the seal and may miss it.
  const uint64_t target = passes_started_ + 1;
  compact_requested_ = true;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return passes_finished_ >= target || stop_; });
  return last_compact_status_;
}

MutationController::Pause MutationController::PauseMutation() {
  std::unique_lock<std::mutex> lock(state_mu_);
  delta_.Seal();
  return Pause(std::move(lock));
}

MutationStats MutationController::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

void MutationController::WorkerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(state_mu_);
      work_cv_.wait(lock, [&] { return stop_ || compact_requested_; });
      if (stop_) {
        // Unblock any Flush caller waiting for a pass that will never run.
        done_cv_.notify_all();
        return;
      }
      compact_requested_ = false;
      ++passes_started_;
    }
    Status status = CompactOnce();
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++passes_finished_;
      last_compact_status_ = std::move(status);
    }
    done_cv_.notify_all();
  }
}

Status MutationController::CompactOnce() {
  DeltaSnapshot snap;
  std::shared_ptr<const InvertedIndex> main;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Seal first so the snapshot holds only sealed segments: Prune drops
    // them by pointer identity, and a still-active segment's copy could
    // not be matched up — its objects would be served twice after the
    // swap.
    delta_.Seal();
    snap = delta_.snapshot();
    if (snap.empty()) return Status::OK();
    main = backend_->index();
  }

  const auto build_start = std::chrono::steady_clock::now();
  GENIE_ASSIGN_OR_RETURN(InvertedIndex compacted,
                         BuildCompactedIndex(*main, snap, options_.build));
  auto fresh = std::make_shared<const InvertedIndex>(std::move(compacted));
  const double build_seconds = SecondsSince(build_start);

  std::lock_guard<std::mutex> lock(state_mu_);
  const auto commit_start = std::chrono::steady_clock::now();
  // Swap + prune are one atomic step under the backend mutex: no execution
  // can pair the new index with the unpruned delta or vice versa.
  GENIE_RETURN_NOT_OK(
      backend_->SwapIndex(std::move(fresh), [&] { delta_.Prune(snap); }));
  ++stats_.compactions;
  stats_.last_compact_seconds = build_seconds;
  stats_.last_pause_seconds = SecondsSince(commit_start);
  return Status::OK();
}

}  // namespace delta
}  // namespace genie
