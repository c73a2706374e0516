#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace perfbench {
namespace {

std::string HitError(size_t rank, const genie::Hit& hit, const char* what) {
  return "hit " + std::to_string(rank) + " (id " + std::to_string(hit.id) +
         ", count " + std::to_string(hit.match_count) + "): " + what;
}

/// Distinct ids, ordered by non-increasing match count.
std::string CheckDistinctOrdered(const genie::QueryHits& got) {
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < got.hits.size(); ++i) {
    if (!seen.insert(got.hits[i].id).second) {
      return HitError(i, got.hits[i], "duplicate id");
    }
    if (i > 0 && got.hits[i].match_count > got.hits[i - 1].match_count) {
      return HitError(i, got.hits[i], "ranked above a smaller count");
    }
  }
  return {};
}

}  // namespace

void DocReference::Add(uint32_t id, const TokenDoc& doc) {
  if (id >= sets_.size()) {
    sets_.resize(id + 1);
    live_.resize(id + 1, false);
  }
  sets_[id] = TokenSet(doc);
  live_[id] = true;
  for (uint32_t token : sets_[id]) {
    if (token >= postings_.size()) postings_.resize(token + 1);
    postings_[token].push_back(id);
  }
}

void DocReference::Remove(uint32_t id) {
  if (id < live_.size()) live_[id] = false;
}

void DocReference::Counts(const TokenDoc& query,
                          std::vector<uint32_t>* counts) const {
  counts->assign(sets_.size(), 0);
  for (uint32_t token : TokenSet(query)) {
    if (token >= postings_.size()) continue;
    for (uint32_t id : postings_[token]) {
      if (live_[id]) ++(*counts)[id];
    }
  }
}

uint32_t DocReference::Count(const TokenDoc& query_set, uint32_t id) const {
  if (id >= sets_.size()) return 0;
  const TokenDoc& doc = sets_[id];
  uint32_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < query_set.size() && j < doc.size()) {
    if (query_set[i] < doc[j]) {
      ++i;
    } else if (doc[j] < query_set[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

void TableCounts(const genie::sa::RelationalTable& table,
                 const genie::sa::RangeQuery& query,
                 std::vector<uint32_t>* counts) {
  counts->assign(table.num_rows(), 0);
  for (const genie::sa::RangeQuery::Item& item : query.items) {
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      const uint32_t v = table.value(row, item.column);
      if (v >= item.lo && v <= item.hi) ++(*counts)[row];
    }
  }
}

std::string CheckCountTopK(const genie::QueryHits& got,
                           std::span<const uint32_t> counts, uint32_t k) {
  std::vector<uint32_t> positive;
  for (uint32_t c : counts) {
    if (c > 0) positive.push_back(c);
  }
  const size_t expected = std::min<size_t>(k, positive.size());
  if (got.hits.size() != expected) {
    return "returned " + std::to_string(got.hits.size()) + " hits, expected " +
           std::to_string(expected);
  }
  if (expected == 0) return {};
  std::nth_element(positive.begin(), positive.begin() + (expected - 1),
                   positive.end(), std::greater<uint32_t>());
  const uint32_t kth = positive[expected - 1];
  if (std::string error = CheckDistinctOrdered(got); !error.empty()) {
    return error;
  }
  size_t above = 0;
  for (size_t i = 0; i < got.hits.size(); ++i) {
    const genie::Hit& hit = got.hits[i];
    if (hit.id >= counts.size() || counts[hit.id] == 0) {
      return HitError(i, hit, "not a live object sharing a keyword");
    }
    if (hit.match_count != counts[hit.id]) {
      return HitError(i, hit,
                      ("true count is " + std::to_string(counts[hit.id]))
                          .c_str());
    }
    if (hit.score != static_cast<double>(hit.match_count)) {
      return HitError(i, hit, "score differs from the count");
    }
    if (hit.match_count < kth) return HitError(i, hit, "below the k-th count");
    if (hit.match_count > kth) ++above;
  }
  size_t truly_above = 0;
  for (uint32_t c : counts) truly_above += c > kth ? 1 : 0;
  if (above != truly_above) {
    return "answer holds " + std::to_string(above) +
           " objects above the k-th count " + std::to_string(kth) + ", not " +
           std::to_string(truly_above);
  }
  return {};
}

std::string CheckHitCounts(const genie::QueryHits& got,
                           const TokenDoc& query_set,
                           const DocReference& reference) {
  if (std::string error = CheckDistinctOrdered(got); !error.empty()) {
    return error;
  }
  for (size_t i = 0; i < got.hits.size(); ++i) {
    const genie::Hit& hit = got.hits[i];
    if (hit.id >= reference.num_ids()) {
      return HitError(i, hit, "id was never assigned");
    }
    if (hit.match_count != reference.Count(query_set, hit.id)) {
      return HitError(i, hit, "wrong count");
    }
  }
  return {};
}

std::string CheckNotRemoved(const genie::QueryHits& got,
                            std::span<const int64_t> removed_ns,
                            int64_t sent_ns) {
  for (size_t i = 0; i < got.hits.size(); ++i) {
    const uint32_t id = got.hits[i].id;
    if (id < removed_ns.size() && removed_ns[id] <= sent_ns) {
      return HitError(i, got.hits[i], "removed before the request was sent");
    }
  }
  return {};
}

double L2(std::span<const float> a, std::span<const float> b) {
  double sum = 0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double diff = static_cast<double>(a[d]) - b[d];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double KthDistance(const genie::data::PointMatrix& points,
                   std::span<const float> query, uint32_t k) {
  // Rank by a float squared distance with independent partial sums (fast,
  // vectorizable), then settle the k-th exactly in double over a margin of
  // candidates wide enough to absorb float rounding.
  const uint32_t dim = points.dim();
  std::vector<std::pair<float, uint32_t>> ranked(points.num_points());
  for (uint32_t i = 0; i < points.num_points(); ++i) {
    const float* row = points.row(i).data();
    float partial[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    uint32_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      for (uint32_t l = 0; l < 8; ++l) {
        const float diff = row[d + l] - query[d + l];
        partial[l] += diff * diff;
      }
    }
    for (; d < dim; ++d) {
      const float diff = row[d] - query[d];
      partial[0] += diff * diff;
    }
    float sum = 0;
    for (float p : partial) sum += p;
    ranked[i] = {sum, i};
  }
  const size_t margin = std::min<size_t>(ranked.size(), k + 16);
  std::partial_sort(ranked.begin(), ranked.begin() + margin, ranked.end());
  std::vector<double> exact(margin);
  for (size_t i = 0; i < margin; ++i) {
    exact[i] = L2(points.row(ranked[i].second), query);
  }
  std::sort(exact.begin(), exact.end());
  return exact[std::min<size_t>(k, margin) - 1];
}

std::string CheckAnn(const genie::QueryHits& got,
                     const genie::data::PointMatrix& points,
                     std::span<const float> query, uint32_t k,
                     double kth_distance, uint32_t* within) {
  if (got.hits.size() > k) {
    return "returned " + std::to_string(got.hits.size()) + " hits for k " +
           std::to_string(k);
  }
  std::unordered_set<uint32_t> seen;
  uint32_t close = 0;
  for (size_t i = 0; i < got.hits.size(); ++i) {
    const genie::Hit& hit = got.hits[i];
    if (hit.id >= points.num_points()) return HitError(i, hit, "no such point");
    if (!seen.insert(hit.id).second) return HitError(i, hit, "duplicate id");
    if (i > 0 && hit.score > got.hits[i - 1].score) {
      return HitError(i, hit, "ranked above a nearer point");
    }
    const double distance = L2(points.row(hit.id), query);
    if (std::abs(hit.score + distance) > 1e-4 * std::max(1.0, distance)) {
      return HitError(i, hit, "score is not the negated exact distance");
    }
    if (distance <= kth_distance * (1 + 1e-9)) ++close;
  }
  *within += close;
  return {};
}

}  // namespace perfbench
