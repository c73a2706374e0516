#pragma once

/// \file multi_load_engine.h
/// Multiple loading (Section III-D, Fig. 6): when the full index exceeds
/// device memory, the dataset is split into parts with an inverted index
/// per part in host memory. A query batch is run against each part in turn
/// (index transfer -> match -> select), and the per-part top-k results are
/// merged on the host into the final top-k. The merge parallelizes across
/// queries on the process-wide ThreadPool; part loads stay sequential
/// because device memory only fits one part at a time.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/match_engine.h"
#include "core/query.h"
#include "index/inverted_index.h"

namespace genie {

/// One data partition: an index over local object ids [0, index->num_objects())
/// mapped to global ids by adding id_offset.
struct IndexPart {
  const InvertedIndex* index = nullptr;
  ObjectId id_offset = 0;
};

/// Checks that every part has an index and that the parts' global id ranges
/// [id_offset, id_offset + num_objects) are pairwise disjoint — the merge
/// contract both MultiLoadEngine and MultiDeviceEngine rely on (an object
/// indexed in two parts would be double-counted). Returns InvalidArgument
/// with the offending pair otherwise.
Status ValidateDisjointParts(std::span<const IndexPart> parts);

/// Final host-side top-k merge (Fig. 6 "Merge"): per query, sorts the
/// pooled per-part candidates (ids already global) by descending count with
/// id tiebreak and keeps the k best. Parallelized over queries on the
/// process pool. Shared by MultiLoadEngine and MultiDeviceEngine so both
/// backends rank identically.
std::vector<QueryResult> MergeCandidatePools(
    std::vector<std::vector<TopKEntry>> pools, uint32_t k);

/// Stage costs specific to multiple loading (Table III).
struct MultiLoadProfile {
  double index_transfer_s = 0;  // swapping each part in
  double merge_s = 0;           // host-side merging of per-part top-k
  MatchProfile per_part;        // accumulated engine stages
};

class MultiLoadEngine {
 public:
  /// The parts must have disjoint global id ranges. Parts are transferred
  /// one at a time, so each part (not their sum) must fit in device memory.
  static Result<std::unique_ptr<MultiLoadEngine>> Create(
      std::vector<IndexPart> parts, const MatchEngineOptions& options);

  /// Runs the batch over every part and merges: the final top-k of a query
  /// is the top-k of the union of its per-part top-k sets.
  Result<std::vector<QueryResult>> ExecuteBatch(
      std::span<const Query> queries);

  const MultiLoadProfile& profile() const { return profile_; }
  void ResetProfile() { profile_ = MultiLoadProfile{}; }
  size_t num_parts() const { return parts_.size(); }

 private:
  MultiLoadEngine(std::vector<IndexPart> parts,
                  const MatchEngineOptions& options);

  std::vector<IndexPart> parts_;
  MatchEngineOptions options_;
  MultiLoadProfile profile_;
};

}  // namespace genie
