#include "core/multi_load_engine.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace genie {

Status ValidateDisjointParts(std::span<const IndexPart> parts) {
  for (const IndexPart& part : parts) {
    if (part.index == nullptr) {
      return Status::InvalidArgument("null index part");
    }
  }
  // Sort the ranges by offset and sweep with the running covered end: a
  // non-empty range starting before it overlaps some earlier range (not
  // necessarily the immediate predecessor — an empty or short part may
  // sort in between).
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  ranges.reserve(parts.size());
  for (const IndexPart& part : parts) {
    ranges.emplace_back(part.id_offset,
                        static_cast<uint64_t>(part.id_offset) +
                            part.index->num_objects());
  }
  std::sort(ranges.begin(), ranges.end());
  std::pair<uint64_t, uint64_t> covering{0, 0};  // range holding the max end
  for (const auto& range : ranges) {
    if (range.first == range.second) continue;  // empty parts overlap nothing
    if (range.first < covering.second) {
      return Status::InvalidArgument(
          "index parts have overlapping global id ranges: [" +
          std::to_string(covering.first) + ", " +
          std::to_string(covering.second) + ") and [" +
          std::to_string(range.first) + ", " + std::to_string(range.second) +
          ")");
    }
    if (range.second > covering.second) covering = range;
  }
  return Status::OK();
}

std::vector<QueryResult> MergeCandidatePools(
    std::vector<std::vector<TopKEntry>> pools, uint32_t k) {
  std::vector<QueryResult> results(pools.size());
  DefaultThreadPool()->ParallelFor(pools.size(), [&](size_t q) {
    auto& pool = pools[q];
    std::sort(pool.begin(), pool.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.id < b.id;
              });
    if (pool.size() > k) pool.resize(k);
    results[q].entries = std::move(pool);
    results[q].threshold =
        results[q].entries.empty() ? 0 : results[q].entries.back().count;
  });
  return results;
}

MultiLoadEngine::MultiLoadEngine(std::vector<IndexPart> parts,
                                 const MatchEngineOptions& options)
    : parts_(std::move(parts)), options_(options) {}

Result<std::unique_ptr<MultiLoadEngine>> MultiLoadEngine::Create(
    std::vector<IndexPart> parts, const MatchEngineOptions& options) {
  if (parts.empty()) {
    return Status::InvalidArgument("multiple loading needs >= 1 part");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  GENIE_RETURN_NOT_OK(ValidateDisjointParts(parts));
  return std::unique_ptr<MultiLoadEngine>(
      new MultiLoadEngine(std::move(parts), options));
}

Result<std::vector<QueryResult>> MultiLoadEngine::ExecuteBatch(
    std::span<const Query> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  if (options_.k == 0) return Status::InvalidArgument("k must be >= 1");
  const size_t num_queries = queries.size();
  // Per-query pool of candidates across parts; ids already global.
  std::vector<std::vector<TopKEntry>> pools(num_queries);

  for (const IndexPart& part : parts_) {
    // Swap this part in: engine construction performs the index transfer
    // and its destruction at scope end releases the device memory before
    // the next part is loaded. Each part resolves its own task list at its
    // swap-in, so at most one part's task list is held at a time.
    GENIE_ASSIGN_OR_RETURN(std::unique_ptr<MatchEngine> engine,
                           MatchEngine::Create(part.index, options_));
    GENIE_ASSIGN_OR_RETURN(std::vector<QueryResult> part_results,
                           engine->ExecuteBatch(queries));
    const MatchProfile& p = engine->profile();
    profile_.index_transfer_s += p.index_transfer_s;
    profile_.per_part.Accumulate(p);
    // Fold this part's top-k into the per-query pools across the worker
    // pool: pools are per-query, so queries partition cleanly. The 65536-
    // query sets of Fig. 11 make this host-side stage scale with
    // num_queries * parts * k, which is worth parallelizing.
    ScopedTimer merge_timer(&profile_.merge_s);
    DefaultThreadPool()->ParallelFor(num_queries, [&](size_t q) {
      for (const TopKEntry& e : part_results[q].entries) {
        pools[q].push_back(TopKEntry{e.id + part.id_offset, e.count});
      }
    });
  }

  // Final merge: top-k of the pooled candidates (Fig. 6 "Merge").
  ScopedTimer merge_timer(&profile_.merge_s);
  return MergeCandidatePools(std::move(pools), options_.k);
}

}  // namespace genie
