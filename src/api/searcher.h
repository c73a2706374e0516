#pragma once

/// \file searcher.h
/// The facade's one searcher; genie::Engine holds exactly one. The paper's
/// framework is generic: a data type supplies only its transformation into
/// keywords plus an optional verify or re-rank step (Sections IV-V), and
/// match, select and scheduling are shared. Searcher is that shared part —
/// the execute critical section and its profile snapshots, live mutation,
/// planner reports and the bundle's mutation section — written once over a
/// small per-modality Hooks object (searchers.cc) that compiles requests
/// into Definition-2.1 queries, answers and shapes a compiled batch, maps
/// inserted objects to keywords (plus any side data kept for re-ranking or
/// verification), and writes the bundle meta.

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/types.h"
#include "common/result.h"
#include "common/serialize.h"
#include "index/delta/mutation_controller.h"
#include "index/inverted_index.h"
#include "plan/index_stats.h"

namespace genie {

/// Modality-erased search over one indexed dataset.
class Searcher {
 public:
  /// What differs between modalities; defined in searchers.cc.
  class Hooks;

  /// `base_objects` is the id watermark of the frozen dataset (inserted
  /// objects take ids from there on).
  Searcher(Modality modality, std::unique_ptr<Hooks> hooks,
           uint32_t base_objects, delta::MutationOptions mutation_options);
  ~Searcher();
  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  Modality modality() const { return modality_; }
  uint32_t num_objects() const;

  /// Answers one batch; the request's payload kind has already been
  /// validated by Engine::Search. Thread-safe: the facade does not
  /// serialize Search calls. A mutex covers exactly the backend execution
  /// (with the modality's verify rounds) and its profile snapshots; results
  /// are shaped outside it so concurrent callers overlap host work with
  /// device work. Implemented as ExecutePrepared(PrepareChunk(request)), so
  /// the blocking and pipelined paths share one code path.
  Result<SearchResult> Search(const SearchRequest& request);

  /// One chunk of a pipelined stream, prepared ahead of execution.
  struct PreparedChunk {
    /// The sliced request this chunk answers. Payload spans are borrowed:
    /// the facade keeps the backing request (and any materialized points
    /// slice) alive until ExecutePrepared returns or the chunk is dropped.
    SearchRequest request;
    /// The request compiled into match-count queries (host memory only);
    /// empty for compiled requests, which are their own queries.
    std::vector<Query> compiled;
  };

  /// Prepare stage of the pipelined SearchStream: the modality's host-side
  /// query transform (LSH hashing, n-gram / range lowering), deliberately
  /// outside the execute critical section — the facade runs
  /// PrepareChunk(chunk k+1) concurrently with ExecutePrepared(chunk k).
  /// Touches neither the backend nor the device.
  Result<PreparedChunk> PrepareChunk(const SearchRequest& request) const;

  /// Execute stage: answers a prepared chunk, with results identical to
  /// Search(chunk.request).
  Result<SearchResult> ExecutePrepared(PreparedChunk chunk);

  /// Queries per stream chunk derived from the free device memory, for
  /// SearchStream's chunk_size = 0 mode. Only compiled requests, whose
  /// per-query device footprint is known up front, derive one; 0 otherwise
  /// (the facade falls back to PlannedChunkSize, then its 1024 default).
  uint32_t DeriveChunkSize(const SearchRequest& request,
                           double memory_fraction) const;

  /// Bundle persistence (Engine::Save): writes the modality-specific
  /// query-side state — LSH family coefficients + re-hash seeds, n-gram
  /// vocabulary, token universe, column layout — that a reopened engine
  /// needs to compile queries exactly like this one.
  Status SerializeBundleMeta(serialize::Writer* writer) const;

  /// The backend's current (possibly compacted) index, which Engine::Save
  /// embeds in the bundle. Call under PauseMutation so the index matches
  /// the mutation section written beside it.
  std::shared_ptr<const InvertedIndex> BundleIndex() const;

  // --- Live mutation (Engine::Insert / Remove / Flush). --------------------
  // A frozen engine pays nothing (no delta store, no compaction thread)
  // until the first Insert/Remove attaches the MutationController.

  /// Inserts a batch (payload kind already validated); returns assigned
  /// ids. A batch the modality rejects assigns no id.
  Result<std::vector<ObjectId>> Insert(const InsertRequest& request);

  /// Tombstones ids; valid on base objects of a never-mutated engine too.
  Status Remove(std::span<const ObjectId> ids);

  /// Synchronous compaction barrier; a no-op on never-mutated engines.
  Status Flush();

  MutationStats mutation_stats() const;

  /// Planner report of the backend (Engine::ExplainPlan).
  std::string ExplainPlan() const;

  /// Stream chunk size the backend's ExecutionPlan recommends; 0 when no
  /// plan is live (an escalation set the tier up). Second step of
  /// SearchStream's chunk_size = 0 fallback chain, between DeriveChunkSize
  /// and the fixed 1024 default.
  uint32_t PlannedChunkSize() const;

  /// Monotone counter of answer-changing index mutations (Insert / Remove /
  /// the compaction hot-swap), from EngineBackend::data_generation. The
  /// serving layer's ResultCache keys entries on it so a cached answer is
  /// never served across a mutation. Internal tier switches do not bump it
  /// — they change the schedule, not the answers.
  uint64_t DataGeneration() const;

  /// Stops mutations and compaction commits while the returned guard
  /// lives (nullptr when the engine was never mutated — nothing to
  /// pause). Engine::Save holds this across the (meta, mutation, index)
  /// serialization so the triple is consistent.
  std::shared_ptr<void> PauseMutation();

  /// GNIEBNDL v2 mutation section (delta snapshot + the modality's
  /// appended side data). Writes nothing on a never-mutated engine, whose
  /// bundle then carries an empty section — the frozen-engine format.
  Status SerializeMutationState(serialize::Writer* writer) const;

  /// Bundle-open path: adopts a restored delta snapshot. Must run before
  /// the engine is visible to other threads.
  void AdoptMutationState(const delta::DeltaSnapshot& snap);

 private:
  delta::MutationController* controller() const;
  /// The controller, created on first use.
  delta::MutationController& EnsureController();

  const Modality modality_;
  const std::unique_ptr<Hooks> hooks_;
  /// Owned by hooks_ (the domain searcher's backend).
  EngineBackend& backend_;
  const uint32_t base_objects_;
  /// The execute critical section: backend execution + profile snapshots.
  std::mutex execute_mu_;
  const delta::MutationOptions mutation_options_;
  mutable std::mutex controller_mu_;
  /// Declared after hooks_, so destroyed first: the compaction worker
  /// joins before the backend it compacts dies.
  std::unique_ptr<delta::MutationController> controller_;
};

/// Builds the searcher for the config's dataset binding and knobs (which
/// Engine::Create has validated).
Result<std::unique_ptr<Searcher>> MakeSearcher(const EngineConfig& config);

/// Bundle open (Engine::Open): reassembles the searcher of a saved
/// `modality` from the bundle's meta blob + loaded index, re-binding the
/// config's dataset for re-ranking / verification. Consumes the whole
/// meta blob (trailing bytes are InvalidArgument) and validates the
/// rebound dataset against the saved shape. `mutation` is the v2 mutation
/// section or nullptr for a frozen engine; when present it is consumed
/// fully and the engine reopens live with the saved delta state adopted.
/// `stats` is the bundle's persisted IndexStats (GNIEBNDL v3) or nullptr
/// for older bundles — borrowed only for the call; when present and still
/// matching the loaded index, the backend skips its stats pass.
Result<std::unique_ptr<Searcher>> OpenSearcher(
    Modality modality, const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats);

}  // namespace genie
