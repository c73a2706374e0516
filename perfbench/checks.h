#pragma once

/// \file checks.h
/// References and answer checks of the end-to-end benchmark. Every
/// reference is computed here from the raw inputs — never by library code
/// such as data::BruteForceKnn — so a fault shared by the library and its
/// own helpers cannot hide. Each check returns an empty string when the
/// answer is right and a description of the first fault otherwise.
///
/// Ties are tolerated only at the k-th count (or k-th distance): every
/// object strictly better than the k-th must be in the answer, and the
/// remaining slots may hold any objects that tie with the k-th.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/types.h"
#include "data/points.h"
#include "inputs.h"
#include "sa/relational.h"

namespace perfbench {

/// Exact inner products of de-duplicated token sets over a corpus whose
/// objects may be added and removed.
class DocReference {
 public:
  /// Registers object `id` (ids must arrive in increasing order).
  void Add(uint32_t id, const TokenDoc& doc);
  void Remove(uint32_t id);
  uint32_t num_ids() const { return static_cast<uint32_t>(sets_.size()); }
  bool live(uint32_t id) const { return id < live_.size() && live_[id]; }
  /// counts[id] = |TokenSet(query) ∩ TokenSet(doc id)| for live ids, 0
  /// otherwise; resized to num_ids().
  void Counts(const TokenDoc& query, std::vector<uint32_t>* counts) const;
  /// The overlap of `query_set` (a TokenSet) with object `id`, live or not.
  uint32_t Count(const TokenDoc& query_set, uint32_t id) const;

 private:
  std::vector<std::vector<uint32_t>> postings_;  // token -> ids
  std::vector<TokenDoc> sets_;                   // id -> token set
  std::vector<bool> live_;
};

/// counts[row] = number of range predicates of `query` that row satisfies.
void TableCounts(const genie::sa::RelationalTable& table,
                 const genie::sa::RangeQuery& query,
                 std::vector<uint32_t>* counts);

/// Match-count top-k (documents, tables): `got` holds min(k, #objects
/// with a positive count) distinct hits, ordered by count, each carrying
/// its true count as match_count and score, and includes every object
/// whose count beats the k-th.
std::string CheckCountTopK(const genie::QueryHits& got,
                           std::span<const uint32_t> counts, uint32_t k);

/// Per-hit part of CheckCountTopK for answers taken while the corpus
/// changes: distinct ids, ordered by count, each count true for its id.
std::string CheckHitCounts(const genie::QueryHits& got,
                           const TokenDoc& query_set,
                           const DocReference& reference);

/// No hit is an id whose Remove returned at or before `sent_ns`
/// (removed_ns[id], absent or INT64_MAX when never removed).
std::string CheckNotRemoved(const genie::QueryHits& got,
                            std::span<const int64_t> removed_ns,
                            int64_t sent_ns);

/// Exact l2 distance with double accumulation.
double L2(std::span<const float> a, std::span<const float> b);

/// The k-th smallest exact l2 distance from `query` to the points.
double KthDistance(const genie::data::PointMatrix& points,
                   std::span<const float> query, uint32_t k);

/// Re-ranked tau-ANN answer: at most k distinct hits, best first, each
/// score equal to the negated exact distance. On success adds to
/// `*within` the hits no farther than `kth_distance` (the recall count).
std::string CheckAnn(const genie::QueryHits& got,
                     const genie::data::PointMatrix& points,
                     std::span<const float> query, uint32_t k,
                     double kth_distance, uint32_t* within);

}  // namespace perfbench
