#include "api/searcher.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_scheduler.h"
#include "core/engine_backend.h"
#include "index/delta/delta_store.h"
#include "index/delta/mutation_controller.h"
#include "lsh/e2lsh.h"
#include "lsh/lsh_searcher.h"
#include "lsh/min_hash.h"
#include "lsh/random_binning.h"
#include "lsh/set_searcher.h"
#include "sa/document_searcher.h"
#include "sa/relational.h"
#include "sa/sequence_searcher.h"

namespace genie {
namespace {

constexpr uint32_t kDefaultHashFunctions = 64;
constexpr uint32_t kDefaultPointsRehashDomain = 8192;
constexpr uint32_t kDefaultSetsRehashDomain = 1024;

/// Bundle meta tags for the concrete LSH family types; caller-supplied
/// custom families cannot be persisted (Save fails with Unimplemented).
constexpr uint8_t kVectorFamilyE2Lsh = 1;
constexpr uint8_t kVectorFamilyRandomBinning = 2;
constexpr uint8_t kSetFamilyMinHash = 1;

MatchEngineOptions BaseEngineOptions(const EngineConfig& config) {
  MatchEngineOptions options;
  options.k = config.k();
  options.max_count = config.max_count();
  switch (config.selector()) {
    case SelectorKind::kCpq:
      options.selector = MatchEngineOptions::Selector::kCpq;
      break;
    case SelectorKind::kCountTableSpq:
      options.selector = MatchEngineOptions::Selector::kCountTableSpq;
      break;
    case SelectorKind::kBucketSelect:
      options.selector = MatchEngineOptions::Selector::kBucketSelect;
      break;
  }
  options.block_dim = config.block_dim();
  options.max_lists_per_block = config.max_lists_per_block();
  options.collect_ht_stats = config.collect_ht_stats();
  options.device = config.device();
  return options;
}

EngineBackendOptions BackendOptions(const EngineConfig& config) {
  EngineBackendOptions options;
  options.allow_multi_load = config.allow_multi_load();
  options.max_parts = config.max_parts();
  options.force_parts = config.force_parts();
  options.shard_build.max_list_length = config.max_list_length();
  options.num_devices = config.num_devices();
  options.remote = config.remote();
  return options;
}

IndexBuildOptions BuildOptions(const EngineConfig& config) {
  IndexBuildOptions options;
  options.max_list_length = config.max_list_length();
  return options;
}

/// Candidates to fetch per query for the re-rank / verify modalities.
uint32_t CandidatePoolSize(const EngineConfig& config) {
  return config.candidate_k() > 0 ? config.candidate_k()
                                  : std::max(config.k(), 32u);
}

/// Backend state captured atomically with a batch — the backend's one-lock
/// profile snapshot plus the modality's verify seconds — inside the
/// searcher's critical section. The per-call delta is computed from two of
/// these after the lock is released, so the facade never reads the backend
/// live while another thread executes.
struct BackendSnapshot {
  EngineBackend::ProfileSnapshot backend;
  double verify_s = 0;
};

BackendSnapshot Snapshot(const EngineBackend& backend, double verify_s = 0) {
  return BackendSnapshot{backend.profile_snapshot(), verify_s};
}

std::vector<DeviceProfile> DeviceCosts(
    const std::vector<MatchProfile>& devices) {
  std::vector<DeviceProfile> costs(devices.size());
  for (size_t d = 0; d < devices.size(); ++d) {
    costs[d].index_transfer_s = devices[d].index_transfer_s;
    costs[d].query_transfer_s = devices[d].query_transfer_s;
    costs[d].match_s = devices[d].match_s;
    costs[d].select_s = devices[d].select_s;
    costs[d].index_bytes = devices[d].index_bytes;
    costs[d].query_bytes = devices[d].query_bytes;
    costs[d].result_bytes = devices[d].result_bytes;
  }
  return costs;
}

std::vector<WorkerProfile> WorkerCosts(
    const std::vector<RemoteWorkerStats>& workers) {
  std::vector<WorkerProfile> costs(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    costs[w].address = workers[w].address;
    costs[w].calls = workers[w].calls;
    costs[w].wins = workers[w].wins;
    costs[w].failures = workers[w].failures;
    costs[w].hedged = workers[w].hedged;
    costs[w].request_bytes = workers[w].request_bytes;
    costs[w].response_bytes = workers[w].response_bytes;
    costs[w].call_s = workers[w].call_s;
    costs[w].network_s =
        std::max(0.0, workers[w].call_s - workers[w].worker_execute_s);
    costs[w].worker_match_s = workers[w].worker_match_s;
    costs[w].worker_select_s = workers[w].worker_select_s;
  }
  return costs;
}

/// Per-call worker delta: `after` minus the matching-address entry of
/// `before` (workers are keyed by address; the set only grows).
std::vector<RemoteWorkerStats> RemoteDelta(
    const std::vector<RemoteWorkerStats>& before,
    const std::vector<RemoteWorkerStats>& after) {
  std::vector<RemoteWorkerStats> delta = after;
  for (RemoteWorkerStats& worker : delta) {
    for (const RemoteWorkerStats& base : before) {
      if (base.address != worker.address) continue;
      worker.calls -= base.calls;
      worker.wins -= base.wins;
      worker.failures -= base.failures;
      worker.hedged -= base.hedged;
      worker.request_bytes -= base.request_bytes;
      worker.response_bytes -= base.response_bytes;
      worker.call_s -= base.call_s;
      worker.worker_match_s -= base.worker_match_s;
      worker.worker_select_s -= base.worker_select_s;
      worker.worker_execute_s -= base.worker_execute_s;
      break;
    }
  }
  return delta;
}

SearchProfile MakeProfile(const MatchProfile& p, double merge_s,
                          double verify_s,
                          const EngineBackend::ProfileSnapshot& facts) {
  SearchProfile profile;
  profile.index_transfer_s = p.index_transfer_s;
  profile.query_transfer_s = p.query_transfer_s;
  profile.match_s = p.match_s;
  profile.select_s = p.select_s;
  profile.merge_s = merge_s;
  profile.verify_s = verify_s;
  profile.index_bytes = p.index_bytes;
  profile.query_bytes = p.query_bytes;
  profile.result_bytes = p.result_bytes;
  profile.used_multi_load = facts.multi_load;
  profile.parts = facts.parts;
  profile.devices = facts.num_devices;
  profile.planned = facts.plan.planned;
  profile.plan_tier = plan::TierToString(facts.plan.tier);
  profile.planned_chunk_size = facts.plan.chunk_size;
  return profile;
}

/// Fills result->profile with the delta between the two snapshots and
/// result->cumulative with the `after` totals.
void FillProfiles(SearchResult* result, const BackendSnapshot& before,
                  const BackendSnapshot& after) {
  MatchProfile delta = after.backend.match;
  delta.Subtract(before.backend.match);
  result->profile =
      MakeProfile(delta, after.backend.merge_s - before.backend.merge_s,
                  after.verify_s - before.verify_s, after.backend);
  result->cumulative = MakeProfile(after.backend.match, after.backend.merge_s,
                                   after.verify_s, after.backend);
  if (after.backend.remote) {
    result->cumulative.workers =
        static_cast<uint32_t>(after.backend.remote_profile.workers.size());
    result->cumulative.scatter_seconds = after.backend.remote_profile.scatter_s;
    result->cumulative.per_worker =
        WorkerCosts(after.backend.remote_profile.workers);
    result->profile.workers = result->cumulative.workers;
    result->profile.scatter_seconds =
        after.backend.remote_profile.scatter_s -
        before.backend.remote_profile.scatter_s;
    result->profile.per_worker = WorkerCosts(
        RemoteDelta(before.backend.remote_profile.workers,
                    after.backend.remote_profile.workers));
  }
  result->cumulative.per_device = DeviceCosts(after.backend.devices);
  if (before.backend.devices.size() == after.backend.devices.size()) {
    std::vector<MatchProfile> device_delta = after.backend.devices;
    for (size_t d = 0; d < device_delta.size(); ++d) {
      device_delta[d].Subtract(before.backend.devices[d]);
    }
    result->profile.per_device = DeviceCosts(device_delta);
  } else {
    // The multi-device tier appeared during this call: all of its
    // per-device cost belongs to it. If instead the tier was retired
    // mid-call (fallback to multi-load), its per-device history was folded
    // into the aggregate stage costs and no per-device attribution
    // remains — the delta's scalar fields still carry those costs.
    result->profile.per_device = DeviceCosts(after.backend.devices);
  }
}

/// MC_k of one answer list: the k-th match count when k answers exist.
/// Precondition: `hits` is in descending match-count order.
uint32_t ThresholdOf(const std::vector<Hit>& hits, uint32_t k) {
  return hits.size() >= k ? hits[k - 1].match_count : 0;
}

/// MC_k of a list in arbitrary order (verified / re-ranked answers).
uint32_t KthLargestCount(const std::vector<Hit>& hits, uint32_t k) {
  if (hits.size() < k) return 0;
  std::vector<uint32_t> counts;
  counts.reserve(hits.size());
  for (const Hit& hit : hits) counts.push_back(hit.match_count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  return counts[k - 1];
}

delta::MutationOptions MutationOptionsFrom(const EngineConfig& config) {
  delta::MutationOptions options;
  options.seal_threshold = config.delta_seal_threshold();
  options.auto_compact_segments = config.auto_compact_segments();
  options.build = BuildOptions(config);
  return options;
}

MutationStats ToApiMutationStats(const delta::MutationStats& stats) {
  MutationStats out;
  out.inserts = stats.inserts;
  out.removes = stats.removes;
  out.compactions = stats.compactions;
  out.last_compact_seconds = stats.last_compact_seconds;
  out.last_pause_seconds = stats.last_pause_seconds;
  return out;
}

/// What a batch's execution hands from inside the execute critical section
/// to the hit shaping outside it.
struct Answers {
  /// Per-query top-k straight from the backend.
  std::vector<QueryResult> raw;
  /// Per-query verified kNN (sequences: Algorithm 2 + escalation rounds).
  std::vector<sa::SequenceSearchOutcome> verified;
};

}  // namespace

// ---------------------------------------------------------------------------
// The per-modality hooks
// ---------------------------------------------------------------------------

/// Everything a modality supplies to the generic Searcher. Each
/// implementation owns its domain searcher (and through it the backend) plus
/// any appended side data.
class Searcher::Hooks {
 public:
  virtual ~Hooks() = default;

  virtual EngineBackend& backend() = 0;

  /// Compiles the request's payload into one match-count query per request
  /// query. Host-only; runs outside the execute critical section.
  virtual Status Compile(const SearchRequest& request,
                         std::vector<Query>* out) const = 0;

  /// Answers a prepared chunk inside the execute critical section.
  virtual Result<Answers> Answer(PreparedChunk& chunk) {
    Answers answers;
    GENIE_ASSIGN_OR_RETURN(answers.raw, backend().ExecuteBatch(chunk.compiled));
    return answers;
  }

  /// Verification seconds so far, snapshotted beside the backend profile.
  virtual double verify_seconds() const { return 0; }

  /// Shapes answers into hits outside the critical section. Default: every
  /// entry passes through, scored by its match count.
  virtual void Shape(const SearchRequest& request, const Answers& answers,
                     SearchResult* result) const {
    (void)request;
    result->queries.resize(answers.raw.size());
    for (size_t q = 0; q < answers.raw.size(); ++q) {
      QueryHits& out = result->queries[q];
      out.hits.reserve(answers.raw[q].entries.size());
      for (const TopKEntry& e : answers.raw[q].entries) {
        out.hits.push_back(Hit{e.id, e.count, static_cast<double>(e.count)});
      }
      out.threshold = answers.raw[q].threshold;
    }
  }

  /// Rejects a malformed insert batch before any id is assigned.
  virtual Status CheckInsert(const InsertRequest& request) const {
    (void)request;
    return Status::OK();
  }

  /// Keywords of the batch's object `i`, viewing `scratch` or the request.
  /// Runs outside the mutation controller's state lock.
  virtual std::span<const Keyword> InsertKeywords(
      const InsertRequest& request, size_t i, std::vector<Keyword>* scratch) = 0;

  /// Appends object `i`'s side data (a row or set to re-rank against, a
  /// sequence to verify), if the modality keeps any; runs under the
  /// mutation controller's state lock, atomically with the id assignment.
  virtual void AppendSideData(const InsertRequest& request, size_t i) {
    (void)request;
    (void)i;
  }

  /// u32 count + one item per appended object, each led by its u64 length;
  /// nothing when the delta's keywords are the whole object.
  virtual Status SerializeSideData(serialize::Writer* writer) const {
    (void)writer;
    return Status::OK();
  }

  virtual Status SerializeBundleMeta(serialize::Writer* writer) const = 0;
};

// ---------------------------------------------------------------------------
// Searcher
// ---------------------------------------------------------------------------

Searcher::Searcher(Modality modality, std::unique_ptr<Hooks> hooks,
                   uint32_t base_objects,
                   delta::MutationOptions mutation_options)
    : modality_(modality), hooks_(std::move(hooks)),
      backend_(hooks_->backend()), base_objects_(base_objects),
      mutation_options_(std::move(mutation_options)) {}

Searcher::~Searcher() = default;

uint32_t Searcher::num_objects() const {
  delta::MutationController* controller = this->controller();
  return controller == nullptr ? base_objects_
                               : static_cast<uint32_t>(controller->next_id());
}

Result<SearchResult> Searcher::Search(const SearchRequest& request) {
  GENIE_ASSIGN_OR_RETURN(PreparedChunk chunk, PrepareChunk(request));
  return ExecutePrepared(std::move(chunk));
}

Result<Searcher::PreparedChunk> Searcher::PrepareChunk(
    const SearchRequest& request) const {
  PreparedChunk chunk;
  chunk.request = request;
  GENIE_RETURN_NOT_OK(hooks_->Compile(request, &chunk.compiled));
  return chunk;
}

Result<SearchResult> Searcher::ExecutePrepared(PreparedChunk chunk) {
  Answers answers;
  BackendSnapshot before, after;
  {
    std::lock_guard<std::mutex> lock(execute_mu_);
    before = Snapshot(backend_, hooks_->verify_seconds());
    GENIE_ASSIGN_OR_RETURN(answers, hooks_->Answer(chunk));
    after = Snapshot(backend_, hooks_->verify_seconds());
  }
  SearchResult result;
  hooks_->Shape(chunk.request, answers, &result);
  FillProfiles(&result, before, after);
  return result;
}

uint32_t Searcher::DeriveChunkSize(const SearchRequest& request,
                                   double memory_fraction) const {
  if (modality_ != Modality::kCompiled) return 0;
  const uint32_t max_count =
      backend_.options().max_count > 0
          ? backend_.options().max_count
          : MatchEngine::DeriveMaxCount(request.compiled);
  const uint64_t per_query = MatchEngine::DeviceBytesPerQuery(
      backend_.index()->num_objects(), backend_.options(), max_count);
  const EngineBackend::BatchBudget budget = backend_.batch_budget();
  return DeriveLargeBatchSize(budget.capacity_bytes, budget.allocated_bytes,
                              per_query, memory_fraction);
}

Status Searcher::SerializeBundleMeta(serialize::Writer* writer) const {
  return hooks_->SerializeBundleMeta(writer);
}

std::shared_ptr<const InvertedIndex> Searcher::BundleIndex() const {
  return backend_.index();
}

Result<std::vector<ObjectId>> Searcher::Insert(const InsertRequest& request) {
  GENIE_RETURN_NOT_OK(hooks_->CheckInsert(request));
  delta::MutationController& controller = EnsureController();
  const size_t count = request.num_objects();
  std::vector<ObjectId> ids;
  ids.reserve(count);
  std::vector<Keyword> scratch;
  size_t i = 0;
  const std::function<void(ObjectId)> append_side_data =
      [&](ObjectId) { hooks_->AppendSideData(request, i); };
  for (; i < count; ++i) {
    const std::span<const Keyword> keywords =
        hooks_->InsertKeywords(request, i, &scratch);
    ids.push_back(controller.Insert(keywords, append_side_data));
  }
  return ids;
}

Status Searcher::Remove(std::span<const ObjectId> ids) {
  // Removing base objects from a never-mutated engine is valid, so the
  // controller is created here too.
  delta::MutationController& controller = EnsureController();
  for (ObjectId id : ids) GENIE_RETURN_NOT_OK(controller.Remove(id));
  return Status::OK();
}

Status Searcher::Flush() {
  delta::MutationController* controller = this->controller();
  return controller == nullptr ? Status::OK() : controller->Flush();
}

MutationStats Searcher::mutation_stats() const {
  delta::MutationController* controller = this->controller();
  return controller == nullptr ? MutationStats{}
                               : ToApiMutationStats(controller->stats());
}

std::string Searcher::ExplainPlan() const { return backend_.ExplainPlan(); }

uint32_t Searcher::PlannedChunkSize() const {
  const plan::ExecutionPlan plan = backend_.execution_plan();
  return plan.planned ? plan.chunk_size : 0;
}

uint64_t Searcher::DataGeneration() const {
  return backend_.data_generation();
}

std::shared_ptr<void> Searcher::PauseMutation() {
  delta::MutationController* controller = this->controller();
  if (controller == nullptr) return nullptr;
  return std::make_shared<delta::MutationController::Pause>(
      controller->PauseMutation());
}

Status Searcher::SerializeMutationState(serialize::Writer* writer) const {
  delta::MutationController* controller = this->controller();
  if (controller == nullptr) return Status::OK();
  delta::SerializeDelta(controller->delta_store()->snapshot(), writer);
  return hooks_->SerializeSideData(writer);
}

void Searcher::AdoptMutationState(const delta::DeltaSnapshot& snap) {
  delta::MutationController& controller = EnsureController();
  std::vector<ObjectId> tombstones = snap.tombstones == nullptr
                                         ? std::vector<ObjectId>{}
                                         : *snap.tombstones;
  controller.delta_store()->Restore(snap.segments, std::move(tombstones),
                                    snap.next_id);
}

delta::MutationController* Searcher::controller() const {
  std::lock_guard<std::mutex> lock(controller_mu_);
  return controller_.get();
}

delta::MutationController& Searcher::EnsureController() {
  std::lock_guard<std::mutex> lock(controller_mu_);
  if (controller_ == nullptr) {
    controller_ = std::make_unique<delta::MutationController>(
        &backend_, base_objects_, mutation_options_);
  }
  return *controller_;
}

namespace {

// ---------------------------------------------------------------------------
// Shared pieces of the modality hooks
// ---------------------------------------------------------------------------

/// Hit shaping of the LSH modalities: c/m similarity estimates (Eqn. 7),
/// MC_k over the match-count order, then in re-rank mode the exact
/// `score(query, id)` order, truncated to k.
template <typename Score>
void ShapeLshHits(const std::vector<QueryResult>& raw, double m, uint32_t k,
                  bool rerank, const Score& score, SearchResult* result) {
  result->queries.resize(raw.size());
  for (size_t q = 0; q < raw.size(); ++q) {
    QueryHits& out = result->queries[q];
    out.hits.reserve(raw[q].entries.size());
    for (const TopKEntry& e : raw[q].entries) {
      out.hits.push_back(Hit{e.id, e.count, e.count / m});
    }
    // MC_k over the match-count ordering, before any re-rank disturbs it.
    out.threshold = ThresholdOf(out.hits, k);
    if (rerank) {
      for (Hit& hit : out.hits) hit.score = score(q, hit.id);
      std::sort(out.hits.begin(), out.hits.end(),
                [](const Hit& a, const Hit& b) { return a.score > b.score; });
    }
    if (out.hits.size() > k) out.hits.resize(k);
  }
}

/// Side data of inserted objects (rows or sets to re-rank against), in id
/// order after the base dataset. A span from At survives the unlock: a
/// growing outer vector moves the inner vectors but never their heap
/// buffers, and appended items are immutable.
template <typename T>
class AppendLog {
 public:
  explicit AppendLog(std::vector<std::vector<T>> items)
      : items_(std::move(items)) {}

  void Append(std::span<const T> item) {
    std::lock_guard<std::shared_mutex> lock(mu_);
    items_.emplace_back(item.begin(), item.end());
  }

  std::span<const T> At(size_t i) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return std::span<const T>(items_[i].data(), items_[i].size());
  }

  void Serialize(serialize::Writer* writer) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    writer->U32(static_cast<uint32_t>(items_.size()));
    for (const std::vector<T>& item : items_) writer->Vec(item);
  }

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::vector<T>> items_;
};

/// A bundle's mutation section as the open path restores it.
struct RestoredDelta {
  /// Absent for a frozen engine.
  std::optional<delta::DeltaSnapshot> snap;
  /// Objects inserted after the base dataset.
  uint32_t appended = 0;
};

/// Reads one appended object's side data from the mutation section.
using ReadSideItem = std::function<Status(serialize::Reader*)>;

/// Reads a v2 mutation section (`mutation` nullptr: a frozen engine): the
/// delta snapshot, then for modalities with side data a u32 count and one
/// `read_item` per appended object, then checks the id watermark against
/// the `base` objects of the saved dataset.
Result<RestoredDelta> ReadMutationSection(serialize::Reader* mutation,
                                          uint32_t base,
                                          const ReadSideItem& read_item) {
  RestoredDelta restored;
  if (mutation == nullptr) return restored;
  delta::DeltaStore staged(0, 1);
  GENIE_RETURN_NOT_OK(delta::DeserializeDelta(mutation, &staged));
  const delta::DeltaSnapshot& snap = restored.snap.emplace(staged.snapshot());
  if (!read_item) {
    GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
    // Without side data the watermark alone tells how many objects were
    // appended.
    if (snap.next_id < base) {
      return Status::InvalidArgument(
          "bundle mutation watermark is below the saved object count");
    }
    restored.appended = snap.next_id - base;
    return restored;
  }
  uint32_t count = 0;
  GENIE_RETURN_NOT_OK(mutation->U32(&count));
  // Every item starts with a u64 length prefix, so a count the remaining
  // bytes cannot hold is forged; reject it before reading any item.
  if (count > mutation->remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument(
        "bundle mutation side-data count exceeds the section");
  }
  for (uint32_t i = 0; i < count; ++i) {
    GENIE_RETURN_NOT_OK(read_item(mutation));
  }
  GENIE_RETURN_NOT_OK(mutation->ExpectEnd());
  if (snap.next_id != static_cast<uint64_t>(base) + count) {
    return Status::InvalidArgument(
        "bundle mutation watermark does not match its appended side data");
  }
  restored.appended = count;
  return restored;
}

std::unique_ptr<Searcher> Assemble(Modality modality,
                                   std::unique_ptr<Searcher::Hooks> hooks,
                                   uint32_t base, const EngineConfig& config,
                                   const RestoredDelta& restored = {}) {
  auto searcher = std::make_unique<Searcher>(modality, std::move(hooks), base,
                                             MutationOptionsFrom(config));
  if (restored.snap.has_value()) searcher->AdoptMutationState(*restored.snap);
  return searcher;
}

// ---------------------------------------------------------------------------
// Points (tau-ANN under an LSH family, Section IV)
// ---------------------------------------------------------------------------

class PointsHooks final : public Searcher::Hooks {
 public:
  PointsHooks(const EngineConfig& config,
              std::unique_ptr<lsh::LshSearcher> searcher,
              std::vector<std::vector<float>> appended_rows = {})
      : points_(config.points()), searcher_(std::move(searcher)),
        k_(config.k()), rerank_(config.exact_rerank()), p_(config.metric_p()),
        appended_(std::move(appended_rows)) {}

  EngineBackend& backend() override { return searcher_->backend(); }

  Status Compile(const SearchRequest& request,
                 std::vector<Query>* out) const override {
    const data::PointMatrix& queries = *request.points;
    out->resize(queries.num_points());
    for (uint32_t i = 0; i < queries.num_points(); ++i) {
      (*out)[i] = searcher_->transformer().MakeQuery(queries.row(i));
    }
    return Status::OK();
  }

  void Shape(const SearchRequest& request, const Answers& answers,
             SearchResult* result) const override {
    ShapeLshHits(
        answers.raw, searcher_->transformer().family().num_functions(), k_,
        rerank_,
        [&](size_t q, ObjectId id) {
          const auto query_row = request.points->row(static_cast<uint32_t>(q));
          return -(p_ == 1 ? data::L1Distance(RowAt(id), query_row)
                           : data::L2Distance(RowAt(id), query_row));
        },
        result);
  }

  std::span<const Keyword> InsertKeywords(
      const InsertRequest& request, size_t i,
      std::vector<Keyword>* scratch) override {
    *scratch = searcher_->transformer().Transform(
        request.points->row(static_cast<uint32_t>(i)));
    return *scratch;
  }

  void AppendSideData(const InsertRequest& request, size_t i) override {
    appended_.Append(request.points->row(static_cast<uint32_t>(i)));
  }

  Status SerializeSideData(serialize::Writer* writer) const override {
    appended_.Serialize(writer);
    return Status::OK();
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    const lsh::VectorLshFamily& family = searcher_->transformer().family();
    if (const auto* e2lsh = dynamic_cast<const lsh::E2LshFamily*>(&family)) {
      writer->U8(kVectorFamilyE2Lsh);
      e2lsh->Serialize(writer);
    } else if (const auto* binning =
                   dynamic_cast<const lsh::RandomBinningFamily*>(&family)) {
      writer->U8(kVectorFamilyRandomBinning);
      binning->Serialize(writer);
    } else {
      return Status::Unimplemented(
          "only engines over the built-in E2LSH or random-binning families "
          "support Save");
    }
    searcher_->transformer().Serialize(writer);
    writer->U32(points_->num_points());
    writer->U32(points_->dim());
    return Status::OK();
  }

 private:
  std::span<const float> RowAt(uint32_t id) const {
    return id < points_->num_points()
               ? points_->row(id)
               : appended_.At(id - points_->num_points());
  }

  const data::PointMatrix* points_;
  std::unique_ptr<lsh::LshSearcher> searcher_;
  uint32_t k_;
  bool rerank_;
  uint32_t p_;
  AppendLog<float> appended_;
};

/// The runtime LSH options of the points and sets modalities, shared by
/// create and open (a sets bundle overrides the transform with its saved
/// one).
lsh::LshSearchOptions LshRuntimeOptions(const EngineConfig& config,
                                        uint32_t default_rehash_domain) {
  lsh::LshSearchOptions options;
  options.transform.rehash_domain = config.rehash_domain() > 0
                                        ? config.rehash_domain()
                                        : default_rehash_domain;
  options.transform.seed = config.seed();
  options.engine = BaseEngineOptions(config);
  options.engine.k =
      config.exact_rerank() ? CandidatePoolSize(config) : config.k();
  options.build = BuildOptions(config);
  options.backend = BackendOptions(config);
  return options;
}

Result<std::unique_ptr<Searcher>> MakePointsSearcher(
    const EngineConfig& config) {
  const data::PointMatrix* points = config.points();
  if (points == nullptr) return Status::InvalidArgument("points is null");
  if (points->num_points() == 0) {
    return Status::InvalidArgument("points dataset is empty");
  }

  std::shared_ptr<const lsh::VectorLshFamily> family = config.vector_family();
  if (family == nullptr) {
    lsh::E2LshOptions lsh_options;
    lsh_options.dim = points->dim();
    lsh_options.num_functions = config.hash_functions() > 0
                                    ? config.hash_functions()
                                    : kDefaultHashFunctions;
    lsh_options.p = config.metric_p();
    lsh_options.seed = config.seed();
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::E2LshFamily> e2lsh,
                           lsh::E2LshFamily::Create(lsh_options));
    family = std::shared_ptr<const lsh::VectorLshFamily>(std::move(e2lsh));
  }

  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<lsh::LshSearcher> searcher,
      lsh::LshSearcher::Create(
          points, family,
          LshRuntimeOptions(config, kDefaultPointsRehashDomain)));
  return Assemble(Modality::kPoints,
                  std::make_unique<PointsHooks>(config, std::move(searcher)),
                  points->num_points(), config);
}

Result<std::unique_ptr<Searcher>> OpenPointsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const data::PointMatrix* points = config.points();
  if (points == nullptr) {
    return Status::InvalidArgument(
        "opening a points bundle requires the Points dataset binding");
  }

  uint8_t family_tag = 0;
  GENIE_RETURN_NOT_OK(meta->U8(&family_tag));
  uint32_t family_dim = 0;
  std::shared_ptr<const lsh::VectorLshFamily> family;
  if (family_tag == kVectorFamilyE2Lsh) {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::E2LshFamily> e2lsh,
                           lsh::E2LshFamily::Deserialize(meta));
    family_dim = e2lsh->options().dim;
    family = std::shared_ptr<const lsh::VectorLshFamily>(std::move(e2lsh));
  } else if (family_tag == kVectorFamilyRandomBinning) {
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::RandomBinningFamily> binning,
                           lsh::RandomBinningFamily::Deserialize(meta));
    family_dim = binning->options().dim;
    family = std::shared_ptr<const lsh::VectorLshFamily>(std::move(binning));
  } else {
    return Status::InvalidArgument("unknown vector LSH family in bundle");
  }
  GENIE_ASSIGN_OR_RETURN(lsh::LshTransformer transformer,
                         lsh::LshTransformer::Deserialize(family, meta));
  uint32_t num_objects = 0;
  uint32_t dim = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->U32(&dim));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  // A crafted bundle (valid checksum, inconsistent fields) whose family
  // dimension disagrees with the dataset dimension would otherwise only
  // surface at query time as a fatal dimension check inside RawHash.
  if (family_dim != dim) {
    return Status::InvalidArgument(
        "bundle LSH family dimension does not match the saved dataset "
        "dimension");
  }
  if (points->num_points() != num_objects || points->dim() != dim) {
    return Status::InvalidArgument(
        "rebound points dataset does not match the saved engine");
  }

  std::vector<std::vector<float>> appended_rows;
  GENIE_ASSIGN_OR_RETURN(
      RestoredDelta restored,
      ReadMutationSection(mutation, num_objects,
                          [&](serialize::Reader* reader) -> Status {
                            std::vector<float> row;
                            GENIE_RETURN_NOT_OK(reader->Vec(&row));
                            if (row.size() != dim) {
                              return Status::InvalidArgument(
                                  "bundle mutation row dimension does not "
                                  "match the dataset");
                            }
                            appended_rows.push_back(std::move(row));
                            return Status::OK();
                          }));

  lsh::LshSearchOptions options =
      LshRuntimeOptions(config, kDefaultPointsRehashDomain);
  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<lsh::LshSearcher> searcher,
      lsh::LshSearcher::Restore(points, std::move(transformer),
                                std::move(index), options, restored.appended));
  return Assemble(Modality::kPoints,
                  std::make_unique<PointsHooks>(config, std::move(searcher),
                                                std::move(appended_rows)),
                  num_objects, config, restored);
}

// ---------------------------------------------------------------------------
// Sets (Jaccard via MinHash, Section II-B1)
// ---------------------------------------------------------------------------

class SetsHooks final : public Searcher::Hooks {
 public:
  SetsHooks(const EngineConfig& config,
            std::shared_ptr<const lsh::SetLshFamily> family,
            std::unique_ptr<lsh::SetLshSearcher> searcher,
            std::vector<std::vector<uint32_t>> appended_sets = {})
      : sets_(config.sets()), family_(std::move(family)),
        searcher_(std::move(searcher)), k_(config.k()),
        rerank_(config.exact_rerank()),
        appended_(std::move(appended_sets)) {}

  EngineBackend& backend() override { return searcher_->backend(); }

  Status Compile(const SearchRequest& request,
                 std::vector<Query>* out) const override {
    out->resize(request.sets.size());
    for (size_t i = 0; i < request.sets.size(); ++i) {
      (*out)[i] = searcher_->MakeQuery(request.sets[i]);
    }
    return Status::OK();
  }

  void Shape(const SearchRequest& request, const Answers& answers,
             SearchResult* result) const override {
    ShapeLshHits(
        answers.raw, family_->num_functions(), k_, rerank_,
        [&](size_t q, ObjectId id) {
          return family_->CollisionProbability(SetAt(id), request.sets[q]);
        },
        result);
  }

  std::span<const Keyword> InsertKeywords(
      const InsertRequest& request, size_t i,
      std::vector<Keyword>* scratch) override {
    *scratch = searcher_->Transform(request.sets[i]);
    return *scratch;
  }

  void AppendSideData(const InsertRequest& request, size_t i) override {
    appended_.Append(request.sets[i]);
  }

  Status SerializeSideData(serialize::Writer* writer) const override {
    appended_.Serialize(writer);
    return Status::OK();
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    const auto* min_hash =
        dynamic_cast<const lsh::MinHashFamily*>(family_.get());
    if (min_hash == nullptr) {
      return Status::Unimplemented(
          "only engines over the built-in MinHash family support Save");
    }
    writer->U8(kSetFamilyMinHash);
    min_hash->Serialize(writer);
    const lsh::LshTransformOptions& transform =
        searcher_->transform_options();
    writer->U32(transform.rehash_domain);
    writer->U64(transform.seed);
    writer->U8(transform.rehash ? 1 : 0);
    writer->Vec(searcher_->rehash_seeds());
    writer->U32(static_cast<uint32_t>(sets_->size()));
    return Status::OK();
  }

 private:
  std::span<const uint32_t> SetAt(uint32_t id) const {
    return id < sets_->size() ? std::span<const uint32_t>((*sets_)[id])
                              : appended_.At(id - sets_->size());
  }

  const std::vector<std::vector<uint32_t>>* sets_;
  std::shared_ptr<const lsh::SetLshFamily> family_;
  std::unique_ptr<lsh::SetLshSearcher> searcher_;
  uint32_t k_;
  bool rerank_;
  AppendLog<uint32_t> appended_;
};

Result<std::unique_ptr<Searcher>> MakeSetsSearcher(const EngineConfig& config) {
  const std::vector<std::vector<uint32_t>>* sets = config.sets();
  if (sets == nullptr) return Status::InvalidArgument("sets is null");
  if (sets->empty()) return Status::InvalidArgument("sets dataset is empty");

  std::shared_ptr<const lsh::SetLshFamily> family = config.set_family();
  if (family == nullptr) {
    lsh::MinHashOptions minhash;
    minhash.num_functions = config.hash_functions() > 0
                                ? config.hash_functions()
                                : kDefaultHashFunctions;
    minhash.seed = config.seed();
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::MinHashFamily> min_hash,
                           lsh::MinHashFamily::Create(minhash));
    family = std::shared_ptr<const lsh::SetLshFamily>(std::move(min_hash));
  }

  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<lsh::SetLshSearcher> searcher,
      lsh::SetLshSearcher::Create(
          sets, family, LshRuntimeOptions(config, kDefaultSetsRehashDomain)));
  return Assemble(Modality::kSets,
                  std::make_unique<SetsHooks>(config, std::move(family),
                                              std::move(searcher)),
                  static_cast<uint32_t>(sets->size()), config);
}

Result<std::unique_ptr<Searcher>> OpenSetsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const std::vector<std::vector<uint32_t>>* sets = config.sets();
  if (sets == nullptr) {
    return Status::InvalidArgument(
        "opening a sets bundle requires the Sets dataset binding");
  }

  uint8_t family_tag = 0;
  GENIE_RETURN_NOT_OK(meta->U8(&family_tag));
  if (family_tag != kSetFamilyMinHash) {
    return Status::InvalidArgument("unknown set LSH family in bundle");
  }
  GENIE_ASSIGN_OR_RETURN(std::unique_ptr<lsh::MinHashFamily> min_hash,
                         lsh::MinHashFamily::Deserialize(meta));
  std::shared_ptr<const lsh::SetLshFamily> family(std::move(min_hash));

  // The saved transform state overrides the config's transform knobs: the
  // reopened engine must hash exactly like the saved one.
  lsh::LshSearchOptions options =
      LshRuntimeOptions(config, kDefaultSetsRehashDomain);
  uint8_t rehash = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&options.transform.rehash_domain));
  GENIE_RETURN_NOT_OK(meta->U64(&options.transform.seed));
  GENIE_RETURN_NOT_OK(meta->U8(&rehash));
  options.transform.rehash = rehash != 0;
  std::vector<uint64_t> rehash_seeds;
  GENIE_RETURN_NOT_OK(meta->Vec(&rehash_seeds));
  uint32_t num_objects = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  if (sets->size() != num_objects) {
    return Status::InvalidArgument(
        "rebound sets dataset does not match the saved engine");
  }

  std::vector<std::vector<uint32_t>> appended_sets;
  GENIE_ASSIGN_OR_RETURN(
      RestoredDelta restored,
      ReadMutationSection(mutation, num_objects,
                          [&](serialize::Reader* reader) -> Status {
                            std::vector<uint32_t> set;
                            GENIE_RETURN_NOT_OK(reader->Vec(&set));
                            appended_sets.push_back(std::move(set));
                            return Status::OK();
                          }));

  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<lsh::SetLshSearcher> searcher,
      lsh::SetLshSearcher::Restore(sets, family, options,
                                   std::move(rehash_seeds), std::move(index),
                                   restored.appended));
  return Assemble(Modality::kSets,
                  std::make_unique<SetsHooks>(config, std::move(family),
                                              std::move(searcher),
                                              std::move(appended_sets)),
                  num_objects, config, restored);
}

// ---------------------------------------------------------------------------
// Sequences (edit distance via ordered n-grams, Section V-A)
// ---------------------------------------------------------------------------

class SequencesHooks final : public Searcher::Hooks {
 public:
  SequencesHooks(const EngineConfig& config,
                 std::unique_ptr<sa::SequenceSearcher> searcher)
      : sequences_(config.sequences()), searcher_(std::move(searcher)),
        k_(config.k()) {}

  EngineBackend& backend() override { return searcher_->backend(); }

  Status Compile(const SearchRequest& request,
                 std::vector<Query>* out) const override {
    out->resize(request.sequences.size());
    for (size_t i = 0; i < request.sequences.size(); ++i) {
      (*out)[i] = searcher_->Compile(request.sequences[i]);
    }
    return Status::OK();
  }

  /// Verification (Algorithm 2) and any escalation rounds run here, so the
  /// verify-seconds bookkeeping shares the critical section.
  Result<Answers> Answer(Searcher::PreparedChunk& chunk) override {
    Answers answers;
    GENIE_ASSIGN_OR_RETURN(
        answers.verified,
        searcher_->ExecuteCompiled(chunk.request.sequences,
                                   std::move(chunk.compiled)));
    return answers;
  }

  double verify_seconds() const override {
    return searcher_->verify_seconds();
  }

  void Shape(const SearchRequest& request, const Answers& answers,
             SearchResult* result) const override {
    (void)request;
    result->queries.resize(answers.verified.size());
    for (size_t q = 0; q < answers.verified.size(); ++q) {
      const sa::SequenceSearchOutcome& outcome = answers.verified[q];
      QueryHits& out = result->queries[q];
      out.hits.reserve(outcome.knn.size());
      for (const sa::SequenceMatch& m : outcome.knn) {
        out.hits.push_back(Hit{m.id, m.match_count,
                               -static_cast<double>(m.edit_distance)});
      }
      // Hits are ordered by edit distance; MC_k comes from their counts.
      out.threshold = KthLargestCount(out.hits, k_);
      out.certified_exact = outcome.certified_exact;
      out.rounds = outcome.rounds;
    }
  }

  /// Grows the n-gram vocabulary before the controller's state lock;
  /// harmless if the insert then fails (the frozen index maps unknown
  /// keywords to empty lists).
  std::span<const Keyword> InsertKeywords(
      const InsertRequest& request, size_t i,
      std::vector<Keyword>* scratch) override {
    *scratch = searcher_->ExtractKeywords(request.sequences[i]);
    return *scratch;
  }

  void AppendSideData(const InsertRequest& request, size_t i) override {
    searcher_->AppendSequence(request.sequences[i]);
  }

  Status SerializeSideData(serialize::Writer* writer) const override {
    return searcher_->SerializeAppended(writer);
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    writer->U32(searcher_->ngram());
    GENIE_RETURN_NOT_OK(searcher_->SerializeVocabulary(writer));
    writer->U32(static_cast<uint32_t>(sequences_->size()));
    return Status::OK();
  }

 private:
  const std::vector<std::string>* sequences_;
  std::unique_ptr<sa::SequenceSearcher> searcher_;
  uint32_t k_;
};

sa::SequenceSearchOptions SequencesRuntimeOptions(const EngineConfig& config) {
  sa::SequenceSearchOptions options;
  options.ngram = config.ngram();
  options.k = config.k();
  options.candidate_k = CandidatePoolSize(config);
  options.escalate_until_exact = config.escalate_until_exact();
  options.max_candidate_k =
      std::max(config.max_candidate_k(), options.candidate_k);
  options.engine = BaseEngineOptions(config);
  options.backend = BackendOptions(config);
  return options;
}

Result<std::unique_ptr<Searcher>> MakeSequencesSearcher(
    const EngineConfig& config) {
  const std::vector<std::string>* sequences = config.sequences();
  if (sequences == nullptr) {
    return Status::InvalidArgument("sequences is null");
  }
  if (sequences->empty()) {
    return Status::InvalidArgument("sequences dataset is empty");
  }

  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::SequenceSearcher> searcher,
      sa::SequenceSearcher::Create(sequences,
                                   SequencesRuntimeOptions(config)));
  return Assemble(Modality::kSequences,
                  std::make_unique<SequencesHooks>(config, std::move(searcher)),
                  static_cast<uint32_t>(sequences->size()), config);
}

Result<std::unique_ptr<Searcher>> OpenSequencesSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const std::vector<std::string>* sequences = config.sequences();
  if (sequences == nullptr) {
    return Status::InvalidArgument(
        "opening a sequences bundle requires the Sequences dataset binding");
  }

  sa::SequenceSearchOptions options = SequencesRuntimeOptions(config);
  GENIE_RETURN_NOT_OK(meta->U32(&options.ngram));
  GENIE_ASSIGN_OR_RETURN(StringVocabulary vocab,
                         StringVocabulary::Deserialize(meta));
  uint32_t num_objects = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  if (sequences->size() != num_objects) {
    return Status::InvalidArgument(
        "rebound sequences dataset does not match the saved engine");
  }

  std::vector<std::string> appended_sequences;
  GENIE_ASSIGN_OR_RETURN(
      RestoredDelta restored,
      ReadMutationSection(mutation, num_objects,
                          [&](serialize::Reader* reader) -> Status {
                            std::string sequence;
                            GENIE_RETURN_NOT_OK(reader->String(&sequence));
                            appended_sequences.push_back(std::move(sequence));
                            return Status::OK();
                          }));

  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::SequenceSearcher> searcher,
      sa::SequenceSearcher::Restore(sequences, options, std::move(vocab),
                                    std::move(index), restored.appended));
  for (std::string& sequence : appended_sequences) {
    searcher->AppendSequence(std::move(sequence));
  }
  return Assemble(Modality::kSequences,
                  std::make_unique<SequencesHooks>(config, std::move(searcher)),
                  num_objects, config, restored);
}

// ---------------------------------------------------------------------------
// Documents (inner product on word sets, Section V-B)
// ---------------------------------------------------------------------------

/// Rejects an inserted keyword or token id of kInvalidKeyword: the delta
/// layer and compaction size the vocabulary as the largest id + 1, which
/// would wrap to 0.
Status CheckInsertedIds(std::span<const std::vector<uint32_t>> objects,
                        const char* what) {
  for (const std::vector<uint32_t>& object : objects) {
    for (uint32_t id : object) {
      if (id == kInvalidKeyword) {
        return Status::InvalidArgument(std::string("inserted ") + what +
                                       " id 0xFFFFFFFF is reserved");
      }
    }
  }
  return Status::OK();
}

class DocumentsHooks final : public Searcher::Hooks {
 public:
  DocumentsHooks(const EngineConfig& config,
                 std::unique_ptr<sa::DocumentSearcher> searcher)
      : documents_(config.documents()), searcher_(std::move(searcher)) {}

  EngineBackend& backend() override { return searcher_->backend(); }

  Status Compile(const SearchRequest& request,
                 std::vector<Query>* out) const override {
    out->resize(request.documents.size());
    for (size_t i = 0; i < request.documents.size(); ++i) {
      (*out)[i] = searcher_->Compile(request.documents[i]);
    }
    return Status::OK();
  }

  Status CheckInsert(const InsertRequest& request) const override {
    return CheckInsertedIds(request.documents, "token");
  }

  /// Documents need no side data: the match count is the whole answer, so
  /// only the keywords (deduped tokens) are retained, in the delta.
  std::span<const Keyword> InsertKeywords(
      const InsertRequest& request, size_t i,
      std::vector<Keyword>* scratch) override {
    *scratch = searcher_->ExtractKeywords(request.documents[i]);
    return *scratch;
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    writer->U32(searcher_->vocab_size());
    writer->U32(static_cast<uint32_t>(documents_->size()));
    return Status::OK();
  }

 private:
  const std::vector<std::vector<uint32_t>>* documents_;
  std::unique_ptr<sa::DocumentSearcher> searcher_;
};

sa::DocumentSearchOptions DocumentsRuntimeOptions(const EngineConfig& config) {
  sa::DocumentSearchOptions options;
  options.k = config.k();
  options.engine = BaseEngineOptions(config);
  options.backend = BackendOptions(config);
  return options;
}

Result<std::unique_ptr<Searcher>> MakeDocumentsSearcher(
    const EngineConfig& config) {
  const std::vector<std::vector<uint32_t>>* documents = config.documents();
  if (documents == nullptr) {
    return Status::InvalidArgument("documents is null");
  }
  if (documents->empty()) {
    return Status::InvalidArgument("documents dataset is empty");
  }

  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::DocumentSearcher> searcher,
      sa::DocumentSearcher::Create(documents,
                                   DocumentsRuntimeOptions(config)));
  return Assemble(Modality::kDocuments,
                  std::make_unique<DocumentsHooks>(config, std::move(searcher)),
                  static_cast<uint32_t>(documents->size()), config);
}

Result<std::unique_ptr<Searcher>> OpenDocumentsSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const std::vector<std::vector<uint32_t>>* documents = config.documents();
  if (documents == nullptr) {
    return Status::InvalidArgument(
        "opening a documents bundle requires the Documents dataset binding");
  }

  uint32_t vocab_size = 0;
  uint32_t num_objects = 0;
  GENIE_RETURN_NOT_OK(meta->U32(&vocab_size));
  GENIE_RETURN_NOT_OK(meta->U32(&num_objects));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  if (documents->size() != num_objects) {
    return Status::InvalidArgument(
        "rebound documents dataset does not match the saved engine");
  }
  GENIE_ASSIGN_OR_RETURN(RestoredDelta restored,
                         ReadMutationSection(mutation, num_objects, nullptr));

  sa::DocumentSearchOptions options = DocumentsRuntimeOptions(config);
  options.backend.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::DocumentSearcher> searcher,
      sa::DocumentSearcher::Restore(documents, options, vocab_size,
                                    std::move(index), restored.appended));
  return Assemble(Modality::kDocuments,
                  std::make_unique<DocumentsHooks>(config, std::move(searcher)),
                  num_objects, config, restored);
}

// ---------------------------------------------------------------------------
// Relational (top-k selection on range predicates, Section V-C)
// ---------------------------------------------------------------------------

class RelationalHooks final : public Searcher::Hooks {
 public:
  RelationalHooks(const EngineConfig& config,
                  std::unique_ptr<sa::RelationalSearcher> searcher)
      : table_(config.table()), searcher_(std::move(searcher)) {}

  EngineBackend& backend() override { return searcher_->backend(); }

  Status Compile(const SearchRequest& request,
                 std::vector<Query>* out) const override {
    out->resize(request.ranges.size());
    for (size_t i = 0; i < request.ranges.size(); ++i) {
      GENIE_ASSIGN_OR_RETURN((*out)[i], searcher_->Compile(request.ranges[i]));
    }
    return Status::OK();
  }

  /// Validates the whole batch before any id is assigned, so a malformed
  /// row cannot leave a partially inserted batch behind.
  Status CheckInsert(const InsertRequest& request) const override {
    const DimValueEncoder& encoder = searcher_->encoder();
    for (const std::vector<uint32_t>& row : request.rows) {
      if (row.size() != encoder.num_dims()) {
        return Status::InvalidArgument(
            "inserted row does not match the table's column count");
      }
      for (uint32_t c = 0; c < row.size(); ++c) {
        if (row[c] >= encoder.buckets(c)) {
          return Status::OutOfRange(
              "inserted row value outside the column's domain");
        }
      }
    }
    return Status::OK();
  }

  std::span<const Keyword> InsertKeywords(
      const InsertRequest& request, size_t i,
      std::vector<Keyword>* scratch) override {
    const DimValueEncoder& encoder = searcher_->encoder();
    const std::vector<uint32_t>& row = request.rows[i];
    scratch->clear();
    for (uint32_t c = 0; c < row.size(); ++c) {
      scratch->push_back(encoder.EncodeUnchecked(c, row[c]));
    }
    return *scratch;
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    writer->U32(table_->num_rows());
    const DimValueEncoder& encoder = searcher_->encoder();
    std::vector<uint32_t> cardinalities(encoder.num_dims());
    for (uint32_t d = 0; d < encoder.num_dims(); ++d) {
      cardinalities[d] = encoder.buckets(d);
    }
    writer->Vec(cardinalities);
    return Status::OK();
  }

 private:
  const sa::RelationalTable* table_;
  std::unique_ptr<sa::RelationalSearcher> searcher_;
};

Result<std::unique_ptr<Searcher>> MakeRelationalSearcher(
    const EngineConfig& config) {
  const sa::RelationalTable* table = config.table();
  if (table == nullptr) return Status::InvalidArgument("table is null");
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::RelationalSearcher> searcher,
      sa::RelationalSearcher::Create(table, config.k(),
                                     BaseEngineOptions(config),
                                     BuildOptions(config),
                                     BackendOptions(config)));
  return Assemble(Modality::kRelational,
                  std::make_unique<RelationalHooks>(config, std::move(searcher)),
                  table->num_rows(), config);
}

Result<std::unique_ptr<Searcher>> OpenRelationalSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  const sa::RelationalTable* table = config.table();
  if (table == nullptr) {
    return Status::InvalidArgument(
        "opening a relational bundle requires the Table dataset binding");
  }

  uint32_t num_rows = 0;
  std::vector<uint32_t> cardinalities;
  GENIE_RETURN_NOT_OK(meta->U32(&num_rows));
  GENIE_RETURN_NOT_OK(meta->Vec(&cardinalities));
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  GENIE_ASSIGN_OR_RETURN(RestoredDelta restored,
                         ReadMutationSection(mutation, num_rows, nullptr));

  EngineBackendOptions backend_options = BackendOptions(config);
  backend_options.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<sa::RelationalSearcher> searcher,
      sa::RelationalSearcher::Restore(table, config.k(), cardinalities,
                                      num_rows, std::move(index),
                                      BaseEngineOptions(config),
                                      BuildOptions(config), backend_options,
                                      restored.appended));
  return Assemble(Modality::kRelational,
                  std::make_unique<RelationalHooks>(config, std::move(searcher)),
                  num_rows, config, restored);
}

// ---------------------------------------------------------------------------
// Compiled (raw Definition-2.1 queries over a caller-built index)
// ---------------------------------------------------------------------------

class CompiledHooks final : public Searcher::Hooks {
 public:
  /// A bundle has no caller-held index to borrow, so an opened engine owns
  /// the loaded one; the backend is created over index() afterwards, when
  /// the member's address is stable.
  explicit CompiledHooks(InvertedIndex owned = InvertedIndex())
      : owned_index_(std::move(owned)) {}

  const InvertedIndex& index() const { return owned_index_; }

  void AdoptBackend(std::unique_ptr<EngineBackend> backend) {
    backend_ = std::move(backend);
  }

  EngineBackend& backend() override { return *backend_; }

  /// Compiled requests are their own queries.
  Status Compile(const SearchRequest& request,
                 std::vector<Query>* out) const override {
    (void)request;
    (void)out;
    return Status::OK();
  }

  Result<Answers> Answer(Searcher::PreparedChunk& chunk) override {
    Answers answers;
    GENIE_ASSIGN_OR_RETURN(answers.raw,
                           backend_->ExecuteBatch(chunk.request.compiled));
    return answers;
  }

  Status CheckInsert(const InsertRequest& request) const override {
    return CheckInsertedIds(request.objects, "keyword");
  }

  std::span<const Keyword> InsertKeywords(
      const InsertRequest& request, size_t i,
      std::vector<Keyword>* scratch) override {
    (void)scratch;
    return request.objects[i];
  }

  Status SerializeBundleMeta(serialize::Writer* writer) const override {
    (void)writer;  // the index is the whole state
    return Status::OK();
  }

 private:
  InvertedIndex owned_index_;
  std::unique_ptr<EngineBackend> backend_;
};

Result<std::unique_ptr<Searcher>> MakeCompiledSearcher(
    const EngineConfig& config) {
  const InvertedIndex* index = config.index();
  if (index == nullptr) return Status::InvalidArgument("index is null");
  auto hooks = std::make_unique<CompiledHooks>();
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<EngineBackend> backend,
      EngineBackend::Create(index, BaseEngineOptions(config),
                            BackendOptions(config)));
  hooks->AdoptBackend(std::move(backend));
  return Assemble(Modality::kCompiled, std::move(hooks), index->num_objects(),
                  config);
}

Result<std::unique_ptr<Searcher>> OpenCompiledSearcher(
    const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  GENIE_RETURN_NOT_OK(meta->ExpectEnd());
  const uint32_t num_objects = index.num_objects();
  GENIE_ASSIGN_OR_RETURN(RestoredDelta restored,
                         ReadMutationSection(mutation, num_objects, nullptr));

  auto hooks = std::make_unique<CompiledHooks>(std::move(index));
  EngineBackendOptions backend_options = BackendOptions(config);
  backend_options.index_stats = stats;
  GENIE_ASSIGN_OR_RETURN(
      std::unique_ptr<EngineBackend> backend,
      EngineBackend::Create(&hooks->index(), BaseEngineOptions(config),
                            backend_options));
  hooks->AdoptBackend(std::move(backend));
  return Assemble(Modality::kCompiled, std::move(hooks), num_objects, config,
                  restored);
}

}  // namespace

Result<std::unique_ptr<Searcher>> MakeSearcher(const EngineConfig& config) {
  switch (config.modality()) {
    case Modality::kPoints: return MakePointsSearcher(config);
    case Modality::kSets: return MakeSetsSearcher(config);
    case Modality::kSequences: return MakeSequencesSearcher(config);
    case Modality::kDocuments: return MakeDocumentsSearcher(config);
    case Modality::kRelational: return MakeRelationalSearcher(config);
    case Modality::kCompiled: return MakeCompiledSearcher(config);
  }
  return Status::InvalidArgument("unknown modality");
}

Result<std::unique_ptr<Searcher>> OpenSearcher(
    Modality modality, const EngineConfig& config, serialize::Reader* meta,
    serialize::Reader* mutation, InvertedIndex index,
    const plan::IndexStats* stats) {
  switch (modality) {
    case Modality::kPoints:
      return OpenPointsSearcher(config, meta, mutation, std::move(index),
                                stats);
    case Modality::kSets:
      return OpenSetsSearcher(config, meta, mutation, std::move(index), stats);
    case Modality::kSequences:
      return OpenSequencesSearcher(config, meta, mutation, std::move(index),
                                   stats);
    case Modality::kDocuments:
      return OpenDocumentsSearcher(config, meta, mutation, std::move(index),
                                   stats);
    case Modality::kRelational:
      return OpenRelationalSearcher(config, meta, mutation, std::move(index),
                                    stats);
    case Modality::kCompiled:
      return OpenCompiledSearcher(config, meta, mutation, std::move(index),
                                  stats);
  }
  return Status::InvalidArgument("unknown modality tag in bundle");
}

}  // namespace genie
