#pragma once

/// \file engine_backend.h
/// Backend selection for match-count execution: run on a single-load
/// MatchEngine when the index fits in device memory, shard across the N
/// devices of a sim::DeviceSet when space multiplexing is requested
/// (num_devices > 1), and transparently fall back to the sequential
/// MultiLoadEngine (Section III-D) when the index does not fit resident.
/// Callers no longer hand-roll the ResourceExhausted -> shard ->
/// multiple-loading dance; every domain searcher and the genie::Engine
/// facade route through this class.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/match_engine.h"
#include "core/multi_device_engine.h"
#include "core/multi_load_engine.h"
#include "core/remote_engine.h"
#include "index/delta/delta_store.h"
#include "index/shard.h"
#include "plan/cost_model.h"
#include "plan/index_stats.h"
#include "plan/query_planner.h"
#include "sim/device_set.h"

namespace genie {

struct EngineBackendOptions {
  /// When false, ResourceExhausted from the single-load engine is returned
  /// to the caller instead of triggering the multiple-loading fallback.
  bool allow_multi_load = true;
  /// Upper bound on fallback parts; escalation past it fails.
  uint32_t max_parts = 256;
  /// Force multiple loading with exactly this many parts (0 = automatic:
  /// single load first, fallback only on ResourceExhausted). Used by the
  /// Table II/III bench to sweep part counts. With num_devices > 1 it
  /// instead sets the part count sharded round-robin across the devices.
  uint32_t force_parts = 0;
  /// Fraction of device capacity one part's List Array may occupy in the
  /// initial fallback estimate (the rest is working memory for c-PQ /
  /// Count Table arenas).
  double part_capacity_fraction = 0.5;
  /// Build options applied when re-sharding for multiple loading, so the
  /// fallback path keeps the caller's load-balance splitting (Fig. 4).
  IndexBuildOptions shard_build;

  /// Devices to shard across (space multiplexing). 1 = the classic
  /// single-device tiers. When > 1 the index is sharded into
  /// max(num_devices, force_parts) object-range parts assigned round-robin
  /// to the devices, all parts resident; batches execute on every device in
  /// parallel. If the parts do not fit resident, the backend falls back to
  /// sequential multiple loading on the base device (when allowed).
  uint32_t num_devices = 1;
  /// Externally owned device registry for the multi-device tier; nullptr =
  /// the backend creates its own set of `num_devices` devices, each
  /// configured like the base device (options.device or the process
  /// default). When set, its size overrides num_devices; a one-device set
  /// runs the classic single-device tiers on its device(0).
  sim::DeviceSet* device_set = nullptr;

  /// Precomputed stats of the creation-time index (e.g. persisted in a
  /// bundle), so Create skips the stats pass. Borrowed only during Create
  /// (the backend copies them); ignored — and recomputed — when they do
  /// not match the index.
  const plan::IndexStats* index_stats = nullptr;

  /// The multi-node tier: when endpoints are configured the backend shards
  /// the index across them (postings-volume-balanced cut) and executes every batch through a RemoteEngine scatter-gather
  /// instead of the local tiers. Mutually exclusive with num_devices > 1 /
  /// device_set (one machine-parallelism axis at a time).
  net::RemoteOptions remote;
};

/// A MatchEngine-shaped executor that owns the backend decision. Exposes an
/// aggregated MatchProfile so existing profile consumers work unchanged on
/// all paths. Thread-safe: ExecuteBatch serializes batches (and any tier
/// escalation) under a per-backend mutex, and the profile accessors take
/// the same mutex. Each individual accessor is race-free; a consistent
/// multi-field snapshot while other threads may be executing must go
/// through profile_snapshot(), which reads everything under one lock
/// acquisition (separate accessor calls can interleave with a completing
/// batch).
class EngineBackend {
 public:
  /// All profile state and backend facts, captured atomically.
  struct ProfileSnapshot {
    MatchProfile match;
    /// Per-device stage costs of the multi-device tier (empty otherwise).
    std::vector<MatchProfile> devices;
    double merge_s = 0;
    bool multi_load = false;
    uint32_t parts = 1;
    uint32_t num_devices = 1;
    /// The execution plan the live tier runs under (plan.planned == false
    /// when an escalation set the tier up).
    plan::ExecutionPlan plan;
    /// Multi-node tier only: per-worker transport/stage accounting.
    bool remote = false;
    RemoteProfile remote_profile;
  };

  /// `index` must outlive the backend.
  static Result<std::unique_ptr<EngineBackend>> Create(
      const InvertedIndex* index, const MatchEngineOptions& options,
      const EngineBackendOptions& backend_options = {});

  /// Executes one batch, escalating to (more) parts on ResourceExhausted.
  /// Equivalent to ExecuteBatchAtK(queries, configured k).
  Result<std::vector<QueryResult>> ExecuteBatch(std::span<const Query> queries);

  /// Executes one batch answering the top `k` per query instead of the
  /// configured k (the sequence searcher's growing-k escalation retries).
  /// Runs on the live — possibly compacted — index with the delta overlay
  /// applied, exactly like ExecuteBatch; when k plus the tombstone slack
  /// exceeds the currently executed k the tier is rebuilt at the larger k
  /// and stays there (ExecuteBatch keeps truncating to its own k via the
  /// overlay, so results are unaffected).
  Result<std::vector<QueryResult>> ExecuteBatchAtK(
      std::span<const Query> queries, uint32_t k);

  /// Everything profile() / merge_seconds() / device_profiles() /
  /// multi_load() / num_parts() / num_devices() report, read under a
  /// single lock acquisition. Callers wanting per-batch deltas snapshot
  /// before and after ExecuteBatch and subtract (MatchProfile::Subtract).
  ProfileSnapshot profile_snapshot() const;

  /// Aggregated stage costs since creation, returned as a snapshot. On the
  /// multi-part paths this is the accumulated per-part profile (index
  /// transfer counts every swap-in on the multi-load path, the one-time
  /// residency transfers on the multi-device path). The accessor never
  /// mutates state.
  MatchProfile profile() const;
  /// Host-side merge seconds (multi-part paths only; 0 on single load).
  double merge_seconds() const;
  /// Per-device stage costs of the multi-device tier, indexed by device
  /// ordinal. Empty on the single-device tiers.
  std::vector<MatchProfile> device_profiles() const;

  bool multi_load() const;
  uint32_t num_parts() const;
  /// Devices batches execute on (1 unless the multi-device tier is active).
  uint32_t num_devices() const;

  /// The plan the live tier executes (planned == false when an escalation
  /// set it up).
  plan::ExecutionPlan execution_plan() const;
  /// Stats of the executed index: persisted (bundle) or computed at
  /// create/swap time.
  plan::IndexStats index_stats() const;
  /// Copy of the calibrated cost model (tests / diagnostics: overflow
  /// counts, per-selector rates).
  plan::CostModel cost_model_snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cost_model_;
  }
  /// Human-readable planner report: stats summary + cost-model state + the
  /// live plan + how the stats were obtained. For Engine::ExplainPlan().
  std::string ExplainPlan() const;

  /// Capacity / allocation of the device that bounds the next batch's
  /// working memory: the base device on the single-device tiers, the
  /// tightest (least-free) device of the set on the multi-device tier —
  /// every device stages the whole batch's per-query arenas beside its
  /// resident parts. Batch / stream-chunk sizing must use this instead of
  /// device(), which the multi-device tier leaves idle.
  struct BatchBudget {
    uint64_t capacity_bytes = 0;
    uint64_t allocated_bytes = 0;
  };
  BatchBudget batch_budget() const;

  /// The index the backend currently executes against — the creation-time
  /// index until a SwapIndex, the freshest swapped-in one after. The
  /// returned reference keeps it alive across a concurrent swap; a swapped
  /// out index is freed once its last holder lets go. The creation-time
  /// index stays caller-owned (its reference does not extend its life).
  std::shared_ptr<const InvertedIndex> index() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_;
  }
  const MatchEngineOptions& options() const { return options_; }

  /// Attaches the mutable delta layer: from now on every execution path
  /// additionally matches the store's segments on the host and folds the
  /// candidates into each query's top-k with tombstoned ids filtered out.
  /// The store must outlive the backend. With no store attached (or an
  /// empty store and no tombstone slack) execution is byte-identical to
  /// the frozen-index behavior.
  void AttachDeltaStore(const delta::DeltaStore* store);
  const delta::DeltaStore* delta_store() const;

  /// Monotonic data-visibility generation: bumped by every change that can
  /// alter answers — delta inserts/removes (the MutationController bumps on
  /// each) and the compaction hot-swap commit (SwapIndex bumps itself). The
  /// serving layer's ResultCache keys entries on this value, so any bump
  /// invalidates every cached answer. Tier rebuilds do not bump it (a tier
  /// switch does not change answers and must not evict the cache).
  uint64_t data_generation() const {
    return data_generation_.load(std::memory_order_acquire);
  }
  void BumpDataGeneration() {
    data_generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Hot-swaps the executed index for `index` (compaction commit): the
  /// live tier is rebuilt over the new index under the backend mutex and
  /// the data generation is bumped — in-flight streams never pause and
  /// never see a torn index. The replaced index is released once the swap
  /// commits (readers holding index() keep it alive until they drop it). `on_committed` (may be empty) runs under
  /// the same mutex hold immediately after the successful swap; the
  /// compactor uses it to prune the delta store atomically with the swap,
  /// so no execution can pair the new index with the unpruned delta (a
  /// duplicate) or the old index with the pruned one (a drop). On failure
  /// the previous index and tier stay live and `on_committed` does not run.
  Status SwapIndex(std::shared_ptr<const InvertedIndex> index,
                   const std::function<void()>& on_committed = {});
  /// The base device (options.device or the process default) — what the
  /// single-load and multi-load tiers run on.
  sim::Device* device() const;

 private:
  EngineBackend(const InvertedIndex* index, const MatchEngineOptions& options,
                const EngineBackendOptions& backend_options);

  /// The creation-time tier selection, re-runnable: also used to rebuild
  /// the tier over a swapped-in index or with a grown tombstone slack.
  /// Plans and applies the plan, re-planning on a memory miss (each miss
  /// feeds the cost model); when three plans in a row miss it falls back
  /// to multiple loading at max(EstimateParts(), force_parts), or returns
  /// the miss when multiple loading is not allowed. Builds the replacement
  /// fully before retiring, so a failure leaves the previous engines live.
  Status SetUpTierLocked();
  /// Recomputes stats_ when they no longer describe index_ (index swap) —
  /// persisted bundle stats survive until the first swap.
  void RefreshStatsLocked();
  /// Machine budget + knobs snapshot the planner consumes.
  plan::PlannerInputs PlannerInputsLocked() const;
  /// Builds the tier `p` names. ResourceExhausted = the plan was
  /// optimistic (the caller records the miss and re-plans or falls back).
  Status ApplyPlanLocked(const plan::ExecutionPlan& p);
  /// Postings the match stage scans for this batch (cost-model work
  /// volume): sum of the queries' keyword frequencies in the live index.
  uint64_t ScannedPostingsLocked(std::span<const Query> queries) const;
  /// Feeds one executed batch's profile delta into the cost model.
  void ObserveExecutionLocked(const ProfileSnapshot& before,
                              std::span<const Query> queries);
  /// Grows options_.k beyond base_k_ when tombstones accumulate, so the
  /// post-filter top-k stays exact: the k live survivors of a query lie
  /// within the top (k + tombstones) of the unfiltered order. Rebuilds the
  /// tier on growth (rounded to powers of two so it is rare).
  Status MaybeGrowSlackLocked();
  /// Host-side delta merge of one executed batch: filters tombstoned ids
  /// out of the engine results, folds in the snapshot's segment matches,
  /// and re-truncates to `k` (base_k_ on the regular paths, the requested
  /// k on ExecuteBatchAtK). Runs OUTSIDE mu_ (the snapshot was captured
  /// under the same mu_ hold as the execution, which is what keeps it
  /// consistent with the executed index).
  void ApplyDeltaOverlay(const delta::DeltaSnapshot& snap,
                         std::span<const Query> queries, uint32_t k,
                         std::vector<QueryResult>* results);

  /// Builds (or rebuilds) the remote tier: shards the index across the
  /// configured endpoints (volume-balanced) and pushes each shard to its workers. Skipped — only the options are
  /// refreshed — when the live RemoteEngine already serves this index, so
  /// k growth does not re-push shards over the wire.
  Status SetUpRemote();
  /// Shards the full index into `parts` and rebuilds the multi-load
  /// engine. Non-empty `boundaries` (a planner cut) override the uniform
  /// object-range split.
  Status SetUpMultiLoad(uint32_t parts,
                        std::span<const ObjectId> boundaries = {});
  /// Shards into `parts` across the device set and builds the resident
  /// multi-device engine. Non-empty `boundaries` / `placement` (a planner
  /// cut) override the uniform split and the round-robin assignment.
  Status SetUpMultiDevice(uint32_t parts,
                          std::span<const ObjectId> boundaries = {},
                          std::span<const uint32_t> placement = {});
  /// The sharding the escalation path uses: volume-balanced (so escalated
  /// parts match what a re-plan would cut), uniform object ranges only
  /// when the stats do not describe the index.
  Result<ShardedIndex> ShardLocked(uint32_t parts,
                                   std::span<const ObjectId> boundaries);
  /// Folds the live engine's stage costs into carried_profile_ and retires
  /// it (before a tier switch).
  void RetireEngines();
  /// Initial part-count estimate from the List Array size vs device budget.
  uint32_t EstimateParts() const;

  uint32_t NumPartsLocked() const;
  ProfileSnapshot SnapshotLocked() const;
  /// Runs the batch on the live tier, escalating on every miss until it
  /// succeeds or escalation is exhausted; mu_ held.
  Result<std::vector<QueryResult>> ExecuteBatchLocked(
      std::span<const Query> queries);
  /// The one escalation step after a batch missed with ResourceExhausted
  /// (`miss`): a c-PQ overflow re-plans onto the overflow-immune selector;
  /// otherwise — or when the re-plan kept kCpq — a resident tier moves to
  /// multiple loading at the estimated part count and the multi-load tier
  /// doubles its parts. OK = retry the batch on the new tier; any other
  /// status is the batch's answer (`miss` itself once escalation is
  /// exhausted or not allowed). mu_ held.
  Status EscalateLocked(const Status& miss);

  /// The executed index. The creation-time index is caller-owned and held
  /// through a no-op deleter; a swapped-in one is owned, so dropping the
  /// last reference frees it.
  std::shared_ptr<const InvertedIndex> index_;
  MatchEngineOptions options_;
  EngineBackendOptions backend_options_;
  /// The caller-visible k; options_.k = base_k_ + tombstone slack.
  uint32_t base_k_ = 0;
  /// The caller-configured select stage. options_.selector is what the live
  /// tier actually runs — the planner may promote a kCpq configuration to
  /// kBucketSelect (hash-table overflow / observed rates); re-plans always
  /// start from this configured value.
  MatchEngineOptions::Selector base_selector_ =
      MatchEngineOptions::Selector::kCpq;
  /// Attached mutable layer (null = frozen index, classic behavior).
  const delta::DeltaStore* delta_store_ = nullptr;

  /// Serializes batches, tier escalation, and profile snapshots.
  mutable std::mutex mu_;

  /// See data_generation(). Atomic so the serving layer reads it without
  /// taking mu_ (it is checked on every cache lookup).
  std::atomic<uint64_t> data_generation_{0};

  /// The live tier's engines (at most one of single_ / multi_ /
  /// multi_device_ / remote_ is set) and the sharded index the multi-part
  /// engines read.
  std::unique_ptr<MatchEngine> single_;
  std::unique_ptr<const ShardedIndex> sharded_;
  std::unique_ptr<MultiLoadEngine> multi_;
  /// Multi-device tier: the device registry (owned unless the caller passed
  /// one in) and the resident sharded engine.
  std::unique_ptr<sim::DeviceSet> owned_devices_;
  sim::DeviceSet* devices_ = nullptr;
  std::unique_ptr<MultiDeviceEngine> multi_device_;
  /// Multi-node tier (exclusive with the three local tiers) and the index
  /// its workers currently hold, so a rebuild that does not change the
  /// index skips the shard re-push.
  std::unique_ptr<RemoteEngine> remote_;
  const InvertedIndex* remote_index_ = nullptr;
  /// Accumulated profile of retired RemoteEngines (index swaps).
  RemoteProfile carried_remote_;
  /// Stage costs of retired engines (single-load before a fallback, or
  /// earlier multi-load generations before a part escalation), so profile()
  /// stays cumulative across backend switches.
  MatchProfile carried_profile_;
  double carried_merge_s_ = 0;

  /// Planner state (all guarded by mu_): the data-shape stats of the
  /// executed index, the calibrated machine model, and the plan the live
  /// tier was built from. stats_persisted_ records whether stats_ came
  /// from a bundle (ExplainPlan reports it; a SwapIndex recompute clears
  /// it).
  plan::IndexStats stats_;
  bool stats_persisted_ = false;
  plan::CostModel cost_model_;
  plan::ExecutionPlan plan_;
};

}  // namespace genie
