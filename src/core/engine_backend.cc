#include "core/engine_backend.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace genie {

EngineBackend::EngineBackend(const InvertedIndex* index,
                             const MatchEngineOptions& options,
                             const EngineBackendOptions& backend_options)
    : index_(index, [](const InvertedIndex*) {}),
      options_(options),
      backend_options_(backend_options),
      base_selector_(options.selector) {}

sim::Device* EngineBackend::device() const {
  return options_.device != nullptr ? options_.device : sim::Device::Default();
}

uint32_t EngineBackend::EstimateParts() const {
  const double budget =
      static_cast<double>(device()->memory_capacity_bytes()) *
      std::clamp(backend_options_.part_capacity_fraction, 0.05, 1.0);
  const double bytes = static_cast<double>(index_->postings_bytes());
  const uint32_t parts =
      budget > 0 ? static_cast<uint32_t>(std::ceil(bytes / budget)) : 2;
  return std::clamp(parts, 2u, backend_options_.max_parts);
}

namespace {

void AccumulateRemoteProfile(RemoteProfile* into, const RemoteProfile& from) {
  into->batches += from.batches;
  into->scatter_s += from.scatter_s;
  into->merge_s += from.merge_s;
  for (const RemoteWorkerStats& worker : from.workers) {
    RemoteWorkerStats* slot = nullptr;
    for (RemoteWorkerStats& existing : into->workers) {
      if (existing.address == worker.address) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      into->workers.push_back(RemoteWorkerStats{});
      slot = &into->workers.back();
      slot->address = worker.address;
    }
    slot->calls += worker.calls;
    slot->wins += worker.wins;
    slot->failures += worker.failures;
    slot->hedged += worker.hedged;
    slot->request_bytes += worker.request_bytes;
    slot->response_bytes += worker.response_bytes;
    slot->call_s += worker.call_s;
    slot->worker_match_s += worker.worker_match_s;
    slot->worker_select_s += worker.worker_select_s;
    slot->worker_execute_s += worker.worker_execute_s;
  }
}

}  // namespace

void EngineBackend::RetireEngines() {
  if (remote_ != nullptr) {
    AccumulateRemoteProfile(&carried_remote_, remote_->profile());
    remote_.reset();
    remote_index_ = nullptr;
  }
  if (single_ != nullptr) {
    carried_profile_.Accumulate(single_->profile());
    single_.reset();
  }
  if (multi_ != nullptr) {
    carried_profile_.Accumulate(multi_->profile().per_part);
    carried_merge_s_ += multi_->profile().merge_s;
    multi_.reset();
  }
  if (multi_device_ != nullptr) {
    const MultiDeviceProfile p = multi_device_->profile();
    carried_profile_.Accumulate(p.Combined());
    carried_merge_s_ += p.merge_s;
    multi_device_.reset();
  }
  sharded_.reset();
}

Result<ShardedIndex> EngineBackend::ShardLocked(
    uint32_t parts, std::span<const ObjectId> boundaries) {
  if (!boundaries.empty()) {
    return ShardByBoundaries(*index_, boundaries,
                             backend_options_.shard_build);
  }
  if (stats_.MatchesIndex(*index_)) {
    // Escalations re-shard through the same volume-balanced cut a re-plan
    // would emit, so planned and escalated part layouts agree.
    return ShardByBoundaries(*index_,
                             plan::BalancedBoundaries(stats_, parts),
                             backend_options_.shard_build);
  }
  return ShardByObjectRange(*index_, parts, backend_options_.shard_build);
}

Status EngineBackend::SetUpMultiLoad(uint32_t parts,
                                     std::span<const ObjectId> boundaries) {
  if (parts > backend_options_.max_parts) {
    return Status::ResourceExhausted(
        "index does not fit in device memory even at max_parts");
  }
  // Build the replacement fully before touching the live engine, so an
  // error here leaves the backend in its previous (still valid) state.
  GENIE_ASSIGN_OR_RETURN(ShardedIndex sharded,
                         ShardLocked(parts, boundaries));
  auto owned = std::make_unique<const ShardedIndex>(std::move(sharded));
  std::vector<IndexPart> index_parts;
  index_parts.reserve(owned->shards.size());
  for (size_t p = 0; p < owned->shards.size(); ++p) {
    index_parts.push_back(IndexPart{&owned->shards[p], owned->offsets[p]});
  }
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<MultiLoadEngine> multi,
                         MultiLoadEngine::Create(index_parts, options_));

  // Commit: fold the retiring engine's stage costs into the carried
  // profile, then swap.
  RetireEngines();
  sharded_ = std::move(owned);
  multi_ = std::move(multi);
  // Record the layout that actually went live (an escalation diverges from
  // the plan; ApplyPlanLocked overwrites this with the planned version).
  plan_.planned = false;
  plan_.tier = plan::ExecutionPlan::Tier::kMultiLoad;
  plan_.selector = options_.selector;
  plan_.num_parts = static_cast<uint32_t>(sharded_->shards.size());
  plan_.part_boundaries.assign(sharded_->offsets.begin(),
                               sharded_->offsets.end());
  plan_.part_boundaries.push_back(index_->num_objects());
  plan_.device_of_part.clear();
  return Status::OK();
}

Status EngineBackend::SetUpMultiDevice(uint32_t parts,
                                       std::span<const ObjectId> boundaries,
                                       std::span<const uint32_t> placement) {
  if (devices_ == nullptr) {
    if (backend_options_.device_set != nullptr) {
      devices_ = backend_options_.device_set;
    } else {
      // Clone the base device's configuration onto N fresh devices, each
      // with its own worker pool and memory accounting.
      sim::DeviceSet::Options set_options;
      set_options.num_devices = backend_options_.num_devices;
      set_options.device = device()->options();
      GENIE_ASSIGN_OR_RETURN(owned_devices_,
                             sim::DeviceSet::Create(set_options));
      devices_ = owned_devices_.get();
    }
  }
  GENIE_ASSIGN_OR_RETURN(ShardedIndex sharded, ShardLocked(parts, boundaries));
  auto owned = std::make_unique<const ShardedIndex>(std::move(sharded));
  std::vector<IndexPart> index_parts;
  index_parts.reserve(owned->shards.size());
  for (size_t p = 0; p < owned->shards.size(); ++p) {
    index_parts.push_back(IndexPart{&owned->shards[p], owned->offsets[p]});
  }
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<MultiDeviceEngine> multi_device,
      MultiDeviceEngine::Create(index_parts, devices_, options_, placement));

  RetireEngines();
  sharded_ = std::move(owned);
  multi_device_ = std::move(multi_device);
  plan_.planned = false;
  plan_.tier = plan::ExecutionPlan::Tier::kMultiDevice;
  plan_.selector = options_.selector;
  plan_.num_parts = static_cast<uint32_t>(sharded_->shards.size());
  plan_.part_boundaries.assign(sharded_->offsets.begin(),
                               sharded_->offsets.end());
  plan_.part_boundaries.push_back(index_->num_objects());
  plan_.device_of_part.assign(placement.begin(), placement.end());
  return Status::OK();
}

Result<std::unique_ptr<EngineBackend>> EngineBackend::Create(
    const InvertedIndex* index, const MatchEngineOptions& options,
    const EngineBackendOptions& backend_options) {
  if (index == nullptr) return Status::InvalidArgument("index is null");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (backend_options.num_devices == 0) {
    return Status::InvalidArgument("num_devices must be >= 1");
  }
  if (backend_options.remote.enabled() &&
      (backend_options.num_devices > 1 ||
       backend_options.device_set != nullptr)) {
    return Status::InvalidArgument(
        "remote endpoints and a multi-device configuration are mutually "
        "exclusive: pick one parallelism axis");
  }
  const uint32_t num_devices =
      backend_options.device_set != nullptr
          ? static_cast<uint32_t>(backend_options.device_set->size())
          : backend_options.num_devices;
  MatchEngineOptions effective_options = options;
  if (backend_options.device_set != nullptr && num_devices == 1) {
    // A one-device set still names the hardware to run on: bind the
    // classic single-device tiers to it instead of silently using
    // options.device / the process default.
    effective_options.device = backend_options.device_set->device(0);
  }
  std::unique_ptr<EngineBackend> backend(
      new EngineBackend(index, effective_options, backend_options));
  backend->backend_options_.num_devices = num_devices;
  backend->base_k_ = effective_options.k;

  if (backend_options.index_stats != nullptr &&
      backend_options.index_stats->MatchesIndex(*index)) {
    // Persisted stats (a bundle's stats section): adopt them and skip the
    // stats pass entirely. The pointer is borrowed only for this copy.
    backend->stats_ = *backend_options.index_stats;
    backend->stats_persisted_ = true;
  }
  backend->backend_options_.index_stats = nullptr;

  std::lock_guard<std::mutex> lock(backend->mu_);
  GENIE_RETURN_NOT_OK(backend->SetUpTierLocked());
  return backend;
}

void EngineBackend::RefreshStatsLocked() {
  if (stats_.MatchesIndex(*index_)) return;
  stats_ = plan::ComputeIndexStats(*index_);
  stats_persisted_ = false;
}

plan::PlannerInputs EngineBackend::PlannerInputsLocked() const {
  plan::PlannerInputs inputs;
  const sim::Device* base = device();
  inputs.capacity_bytes = base->memory_capacity_bytes();
  inputs.allocated_bytes = base->allocated_bytes();
  if (backend_options_.num_devices > 1) {
    const sim::DeviceSet* set =
        devices_ != nullptr ? devices_ : backend_options_.device_set;
    if (set != nullptr) {
      // Budget against the tightest device of the set: every device must
      // hold its residency share beside the batch working memory.
      uint64_t min_free = std::numeric_limits<uint64_t>::max();
      for (size_t d = 0; d < set->size(); ++d) {
        const sim::Device* dev = set->device(d);
        const uint64_t capacity = dev->memory_capacity_bytes();
        const uint64_t allocated = dev->allocated_bytes();
        const uint64_t free_bytes =
            capacity > allocated ? capacity - allocated : 0;
        if (free_bytes < min_free) {
          min_free = free_bytes;
          inputs.capacity_bytes = capacity;
          inputs.allocated_bytes = allocated;
        }
      }
    } else {
      // The backend will clone the base device's configuration onto fresh
      // devices, so each starts with its full capacity free.
      inputs.allocated_bytes = 0;
    }
  }
  inputs.bytes_per_query = MatchEngine::DeviceBytesPerQuery(
      index_->num_objects(), options_,
      options_.max_count > 0 ? options_.max_count : 16);
  inputs.selector = base_selector_;
  inputs.num_devices = backend_options_.num_devices;
  inputs.num_remote_workers =
      static_cast<uint32_t>(backend_options_.remote.endpoints.size());
  inputs.force_parts = backend_options_.force_parts;
  inputs.max_parts = backend_options_.max_parts;
  inputs.allow_multi_load = backend_options_.allow_multi_load;
  inputs.part_capacity_fraction = backend_options_.part_capacity_fraction;
  return inputs;
}

Status EngineBackend::ApplyPlanLocked(const plan::ExecutionPlan& p) {
  // The plan owns the select stage: every engine the tier builds below
  // reads options_, so the promotion (or a revert on re-plan) takes effect
  // on all tiers uniformly.
  options_.selector = p.selector;
  switch (p.tier) {
    case plan::ExecutionPlan::Tier::kSingleDevice: {
      GENIE_ASSIGN_OR_RETURN(std::unique_ptr<MatchEngine> single,
                             MatchEngine::Create(index_.get(), options_));
      RetireEngines();
      single_ = std::move(single);
      return Status::OK();
    }
    case plan::ExecutionPlan::Tier::kMultiDevice:
      return SetUpMultiDevice(p.num_parts, p.part_boundaries,
                              p.device_of_part);
    case plan::ExecutionPlan::Tier::kMultiLoad:
      return SetUpMultiLoad(p.num_parts, p.part_boundaries);
    case plan::ExecutionPlan::Tier::kRemote:
      return SetUpRemote();
  }
  return Status::InvalidArgument("unknown plan tier");
}

Status EngineBackend::SetUpRemote() {
  const net::RemoteOptions& remote = backend_options_.remote;
  if (remote_ != nullptr && remote_index_ == index_.get()) {
    // Same index, new options (k growth, selector promotion): the workers
    // rebuild their engines lazily from the wire options — no re-push.
    remote_->UpdateOptions(options_);
    return Status::OK();
  }
  RefreshStatsLocked();
  const uint32_t workers =
      static_cast<uint32_t>(remote.endpoints.size());
  const uint32_t parts =
      std::min(workers, std::max(1u, index_->num_objects()));
  if (parts < workers) {
    return Status::InvalidArgument(
        "remote engine: more endpoints than objects to shard");
  }
  GENIE_ASSIGN_OR_RETURN(ShardedIndex sharded, ShardLocked(parts, {}));
  std::vector<IndexPart> index_parts;
  index_parts.reserve(sharded.shards.size());
  for (size_t p = 0; p < sharded.shards.size(); ++p) {
    index_parts.push_back(
        IndexPart{&sharded.shards[p], sharded.offsets[p]});
  }
  // Workers deserialize and own their shard, so the sharded copy here is
  // free to die with this scope.
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<RemoteEngine> engine,
                         RemoteEngine::Create(index_parts, options_, remote));
  RetireEngines();
  remote_ = std::move(engine);
  remote_index_ = index_.get();
  plan_.planned = true;
  plan_.tier = plan::ExecutionPlan::Tier::kRemote;
  plan_.selector = options_.selector;
  plan_.num_parts = parts;
  plan_.part_boundaries.assign(sharded.offsets.begin(),
                               sharded.offsets.end());
  plan_.part_boundaries.push_back(index_->num_objects());
  plan_.device_of_part.clear();
  return Status::OK();
}

Status EngineBackend::SetUpTierLocked() {
  if (backend_options_.remote.enabled()) return SetUpRemote();
  RefreshStatsLocked();
  const plan::QueryPlanner planner(stats_);
  Status status;
  for (int attempt = 0; attempt < 3; ++attempt) {
    plan::ExecutionPlan candidate =
        planner.Plan(PlannerInputsLocked(), cost_model_);
    status = ApplyPlanLocked(candidate);
    if (status.ok()) {
      plan_ = std::move(candidate);
      return status;
    }
    if (status.code() != StatusCode::kResourceExhausted) return status;
    // The plan was optimistic: record the miss (shrinking the residency
    // margin) and re-plan against the tightened model.
    cost_model_.RecordEscalation();
  }
  // Three tightened plans in a row still missed: time-multiplex the base
  // device, the last rung of the escalation ladder.
  if (!backend_options_.allow_multi_load) return status;
  return SetUpMultiLoad(
      std::max(EstimateParts(), backend_options_.force_parts));
}

void EngineBackend::AttachDeltaStore(const delta::DeltaStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  delta_store_ = store;
}

const delta::DeltaStore* EngineBackend::delta_store() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_store_;
}

Status EngineBackend::SwapIndex(std::shared_ptr<const InvertedIndex> index,
                                const std::function<void()>& on_committed) {
  if (index == nullptr) return Status::InvalidArgument("index is null");
  std::lock_guard<std::mutex> lock(mu_);
  // The old index stays referenced until SetUpTierLocked returns: the
  // retiring engines read it, and SetUpRemote tells a new index from the
  // one its workers hold by address, which must not be reused meanwhile.
  std::shared_ptr<const InvertedIndex> old_index = std::move(index_);
  index_ = std::move(index);
  const Status status = SetUpTierLocked();
  if (!status.ok()) {
    index_ = std::move(old_index);
    return status;
  }
  if (on_committed) on_committed();
  // The swapped-in index may answer differently (compaction folded delta
  // segments in); invalidate every serving-layer cached result.
  BumpDataGeneration();
  return Status::OK();
}

Status EngineBackend::MaybeGrowSlackLocked() {
  if (delta_store_ == nullptr) return Status::OK();
  const uint32_t tombstones = delta_store_->num_tombstones();
  uint32_t slack = 0;
  if (tombstones > 0) {
    slack = 8;
    while (slack < tombstones) slack *= 2;
  }
  if (base_k_ + slack <= options_.k) return Status::OK();
  const uint32_t previous_k = options_.k;
  options_.k = base_k_ + slack;
  const Status status = SetUpTierLocked();
  if (!status.ok()) {
    options_.k = previous_k;
    return status;
  }
  return Status::OK();
}

void EngineBackend::ApplyDeltaOverlay(const delta::DeltaSnapshot& snap,
                                      std::span<const Query> queries,
                                      uint32_t k,
                                      std::vector<QueryResult>* results) {
  const auto overlay_start = std::chrono::steady_clock::now();
  std::vector<std::vector<TopKEntry>> pools =
      delta::DeltaStore::Match(snap, queries);
  const bool any_tombstones = snap.num_tombstones() > 0;
  for (size_t q = 0; q < results->size(); ++q) {
    QueryResult& result = (*results)[q];
    if (any_tombstones) {
      result.entries.erase(
          std::remove_if(result.entries.begin(), result.entries.end(),
                         [&](const TopKEntry& e) {
                           return delta::IsTombstoned(snap, e.id);
                         }),
          result.entries.end());
    }
    if (q < pools.size() && !pools[q].empty()) {
      result.entries.insert(result.entries.end(), pools[q].begin(),
                            pools[q].end());
    }
    std::sort(result.entries.begin(), result.entries.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.id < b.id;
              });
    if (result.entries.size() > k) result.entries.resize(k);
    result.threshold =
        result.entries.size() >= k ? result.entries.back().count : 0;
  }
  const double overlay_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    overlay_start)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  carried_merge_s_ += overlay_s;
}

Result<std::vector<QueryResult>> EngineBackend::ExecuteBatch(
    std::span<const Query> queries) {
  return ExecuteBatchAtK(queries, base_k_);
}

Result<std::vector<QueryResult>> EngineBackend::ExecuteBatchAtK(
    std::span<const Query> queries, uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  Result<std::vector<QueryResult>> results = std::vector<QueryResult>{};
  delta::DeltaSnapshot snap;
  bool overlay = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    GENIE_RETURN_NOT_OK(MaybeGrowSlackLocked());
    // The requested k needs the same tombstone slack on top as base_k_
    // does, so the k live survivors stay within the executed top-k.
    const uint32_t slack = options_.k - base_k_;
    if (k + slack > options_.k) {
      const uint32_t previous_k = options_.k;
      options_.k = k + slack;
      const Status status = SetUpTierLocked();
      if (!status.ok()) {
        options_.k = previous_k;
        return status;
      }
    }
    const ProfileSnapshot before = SnapshotLocked();
    results = ExecuteBatchLocked(queries);
    if (results.ok()) {
      ObserveExecutionLocked(before, queries);
      // Captured under the same mu_ hold as the execution: the snapshot is
      // consistent with the executed index (a compaction swap + prune is
      // one atomic step under this mutex).
      if (delta_store_ != nullptr) snap = delta_store_->snapshot();
      overlay = !snap.empty() || options_.k != k;
    }
  }
  if (overlay) ApplyDeltaOverlay(snap, queries, k, &results.ValueOrDie());
  return results;
}

Result<std::vector<QueryResult>> EngineBackend::ExecuteBatchLocked(
    std::span<const Query> queries) {
  if (remote_ != nullptr) {
    // The multi-node tier has no local escalation ladder: a shard that
    // cannot execute (every replica failed) fails the batch with the
    // workers' Status — sharding finer is a deployment decision, not a
    // runtime fallback.
    return remote_->ExecuteBatch(queries);
  }
  while (true) {
    Result<std::vector<QueryResult>> results =
        single_ != nullptr         ? single_->ExecuteBatch(queries)
        : multi_device_ != nullptr ? multi_device_->ExecuteBatch(queries)
                                   : multi_->ExecuteBatch(queries);
    if (results.ok() ||
        results.status().code() != StatusCode::kResourceExhausted) {
      return results;
    }
    GENIE_RETURN_NOT_OK(EscalateLocked(results.status()));
  }
}

Status EngineBackend::EscalateLocked(const Status& miss) {
  const bool from_multi_load = multi_ != nullptr;
  if (!from_multi_load && !backend_options_.allow_multi_load) return miss;
  const uint32_t parts = NumPartsLocked();
  const bool overflow = MatchEngine::IsCpqOverflow(miss);
  if (overflow) {
    cost_model_.RecordCpqOverflow();
    if (options_.selector == MatchEngineOptions::Selector::kCpq) {
      // Re-plan: with the overflow recorded the planner promotes the batch
      // to kBucketSelect, whose select stage cannot overflow.
      GENIE_RETURN_NOT_OK(SetUpTierLocked());
      if (options_.selector != MatchEngineOptions::Selector::kCpq) {
        return Status::OK();
      }
    }
  }
  // Batch working memory did not fit beside the resident index (or the
  // re-plan could not avoid the overflow): a resident tier retires —
  // freeing its device-resident index — and multiple-loads; the multi-load
  // tier splits finer. Sharding finer does not shrink per-device residency
  // on the multi-device tier, so it too falls back to the base device.
  uint32_t next_parts =
      std::max(2u, std::min(EstimateParts(), backend_options_.max_parts));
  if (from_multi_load) {
    if (parts >= backend_options_.max_parts ||
        parts >= index_->num_objects()) {
      return miss;
    }
    next_parts = std::min(parts * 2, backend_options_.max_parts);
  }
  if (!overflow) cost_model_.RecordEscalation();
  return SetUpMultiLoad(next_parts);
}

uint64_t EngineBackend::ScannedPostingsLocked(
    std::span<const Query> queries) const {
  uint64_t scanned = 0;
  for (const Query& query : queries) {
    for (uint32_t i = 0; i < query.num_items(); ++i) {
      for (const Keyword kw : query.item(i)) {
        scanned += index_->KeywordFrequency(kw);
      }
    }
  }
  return scanned;
}

void EngineBackend::ObserveExecutionLocked(const ProfileSnapshot& before,
                                           std::span<const Query> queries) {
  if (queries.empty()) return;
  const ProfileSnapshot after = SnapshotLocked();
  MatchProfile delta = after.match;
  delta.Subtract(before.match);
  cost_model_.ObserveExecution(delta, ScannedPostingsLocked(queries),
                               static_cast<uint32_t>(queries.size()),
                               options_.selector);
  const double merge_delta = after.merge_s - before.merge_s;
  if (merge_delta > 0) {
    cost_model_.ObserveMerge(merge_delta,
                             static_cast<uint32_t>(queries.size()),
                             after.parts);
  }
}

uint32_t EngineBackend::NumPartsLocked() const {
  if (remote_ != nullptr) return remote_->num_shards();
  if (multi_ != nullptr) return static_cast<uint32_t>(multi_->num_parts());
  if (multi_device_ != nullptr) {
    return static_cast<uint32_t>(multi_device_->num_parts());
  }
  return 1;
}

EngineBackend::ProfileSnapshot EngineBackend::SnapshotLocked() const {
  ProfileSnapshot snapshot;
  snapshot.match = carried_profile_;
  snapshot.merge_s = carried_merge_s_;
  if (single_ != nullptr) {
    snapshot.match.Accumulate(single_->profile());
  } else if (multi_device_ != nullptr) {
    const MultiDeviceProfile p = multi_device_->profile();
    snapshot.match.Accumulate(p.Combined());
    snapshot.merge_s += p.merge_s;
    snapshot.devices = p.per_device;
    snapshot.num_devices = static_cast<uint32_t>(multi_device_->num_devices());
  } else if (remote_ != nullptr) {
    snapshot.remote = true;
    snapshot.remote_profile = carried_remote_;
    AccumulateRemoteProfile(&snapshot.remote_profile, remote_->profile());
    // Fold the workers' reported stage seconds into the aggregated match
    // profile so existing profile consumers (cost model, SearchProfile)
    // see the real match/select work, wherever it ran.
    MatchProfile remote_match;
    for (const RemoteWorkerStats& worker : snapshot.remote_profile.workers) {
      remote_match.match_s += worker.worker_match_s;
      remote_match.select_s += worker.worker_select_s;
      remote_match.query_bytes += worker.request_bytes;
      remote_match.result_bytes += worker.response_bytes;
    }
    snapshot.match.Accumulate(remote_match);
    snapshot.merge_s += snapshot.remote_profile.merge_s;
  } else {
    snapshot.match.Accumulate(multi_->profile().per_part);
    snapshot.merge_s += multi_->profile().merge_s;
    snapshot.multi_load = true;
  }
  snapshot.parts = NumPartsLocked();
  snapshot.plan = plan_;
  return snapshot;
}

EngineBackend::ProfileSnapshot EngineBackend::profile_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

bool EngineBackend::multi_load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return multi_ != nullptr;
}

uint32_t EngineBackend::num_parts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NumPartsLocked();
}

uint32_t EngineBackend::num_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return multi_device_ != nullptr
             ? static_cast<uint32_t>(multi_device_->num_devices())
             : 1;
}

EngineBackend::BatchBudget EngineBackend::batch_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (multi_device_ != nullptr && devices_ != nullptr) {
    BatchBudget tightest;
    uint64_t min_free = std::numeric_limits<uint64_t>::max();
    for (size_t d = 0; d < devices_->size(); ++d) {
      const sim::Device* dev = devices_->device(d);
      const uint64_t capacity = dev->memory_capacity_bytes();
      const uint64_t allocated = dev->allocated_bytes();
      const uint64_t free_bytes =
          capacity > allocated ? capacity - allocated : 0;
      if (free_bytes < min_free) {
        min_free = free_bytes;
        tightest = BatchBudget{capacity, allocated};
      }
    }
    return tightest;
  }
  return BatchBudget{device()->memory_capacity_bytes(),
                     device()->allocated_bytes()};
}

MatchProfile EngineBackend::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked().match;
}

double EngineBackend::merge_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked().merge_s;
}

std::vector<MatchProfile> EngineBackend::device_profiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked().devices;
}

plan::ExecutionPlan EngineBackend::execution_plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

plan::IndexStats EngineBackend::index_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string EngineBackend::ExplainPlan() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "planner: on";
  out += stats_persisted_ ? " (stats: persisted)" : " (stats: computed)";
  out += "\nplan: ";
  out += plan_.DebugString();
  out += "\nlive: tier=";
  if (single_ != nullptr) {
    out += "single-device";
  } else if (multi_device_ != nullptr) {
    out += "multi-device devices=" +
           std::to_string(multi_device_->num_devices());
  } else if (multi_ != nullptr) {
    out += "multi-load";
  } else if (remote_ != nullptr) {
    out += "remote workers=" + std::to_string(remote_->num_shards());
  } else {
    out += "none";
  }
  out += " parts=" + std::to_string(NumPartsLocked());
  out += " k=" + std::to_string(options_.k);
  out += " selector=";
  out += plan::SelectorToString(options_.selector);
  out += "\nstats: ";
  out += stats_.DebugString();
  out += "\ncost-model: ";
  out += cost_model_.DebugString();
  return out;
}

}  // namespace genie
