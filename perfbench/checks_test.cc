/// Test of the benchmark's own checks: each accepts a right answer and
/// rejects it once corrupted (a swapped id, a wrong count, a removed id
/// that reappears, ...). Exits non-zero on the first check that lets a
/// corrupted answer through.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>

#include "checks.h"
#include "inputs.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// The exact top-k of `counts`, ties broken by id.
genie::QueryHits TopK(const std::vector<uint32_t>& counts, uint32_t k) {
  std::vector<uint32_t> ids(counts.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return counts[a] > counts[b];
  });
  genie::QueryHits out;
  for (uint32_t id : ids) {
    if (out.hits.size() == k || counts[id] == 0) break;
    out.hits.push_back({id, counts[id], static_cast<double>(counts[id])});
  }
  return out;
}

void DocumentChecks() {
  const Zipf vocabulary(200, 1.05);
  Rng rng(11);
  const std::vector<TokenDoc> docs = MakeDocuments(400, vocabulary, 5, 16, rng);
  DocReference reference;
  for (uint32_t id = 0; id < docs.size(); ++id) reference.Add(id, docs[id]);
  const TokenDoc query = MakeDocQuery(docs[7], 0.3, vocabulary, rng);
  std::vector<uint32_t> counts;
  reference.Counts(query, &counts);
  const uint32_t k = 10;
  const genie::QueryHits right = TopK(counts, k);
  Expect(CheckCountTopK(right, counts, k).empty(), "top-k: exact answer passes");

  // A hit swapped for an object outside the top-k with a smaller count.
  uint32_t outsider = 0;
  while (outsider < counts.size() &&
         (counts[outsider] == 0 ||
          counts[outsider] >= right.hits.back().match_count)) {
    ++outsider;
  }
  genie::QueryHits swapped = right;
  swapped.hits.back() = {outsider, counts[outsider],
                         static_cast<double>(counts[outsider])};
  Expect(!CheckCountTopK(swapped, counts, k).empty(),
         "top-k: a swapped-in weaker id fails");

  genie::QueryHits relabelled = right;
  relabelled.hits[0].id = outsider;
  Expect(!CheckCountTopK(relabelled, counts, k).empty(),
         "top-k: an id carrying another's count fails");

  genie::QueryHits miscounted = right;
  ++miscounted.hits[2].match_count;
  Expect(!CheckCountTopK(miscounted, counts, k).empty(),
         "top-k: a wrong count fails");

  genie::QueryHits duplicated = right;
  duplicated.hits[1] = duplicated.hits[0];
  Expect(!CheckCountTopK(duplicated, counts, k).empty(),
         "top-k: a duplicate id fails");

  genie::QueryHits reordered = right;
  std::reverse(reordered.hits.begin(), reordered.hits.end());
  Expect(right.hits.front().match_count == right.hits.back().match_count ||
             !CheckCountTopK(reordered, counts, k).empty(),
         "top-k: a reversed order fails");

  genie::QueryHits short_answer = right;
  short_answer.hits.pop_back();
  Expect(!CheckCountTopK(short_answer, counts, k).empty(),
         "top-k: a short answer fails");

  // A tie at the k-th count may be resolved either way.
  const uint32_t kth = right.hits.back().match_count;
  for (uint32_t id = 0; id < counts.size(); ++id) {
    const bool listed =
        std::any_of(right.hits.begin(), right.hits.end(),
                    [&](const genie::Hit& h) { return h.id == id; });
    if (!listed && counts[id] == kth) {
      genie::QueryHits tie = right;
      tie.hits.back() = {id, kth, static_cast<double>(kth)};
      Expect(CheckCountTopK(tie, counts, k).empty(),
             "top-k: another object tied at the k-th count passes");
      break;
    }
  }

  // Answers taken while the corpus changes.
  const TokenDoc query_set = TokenSet(query);
  Expect(CheckHitCounts(right, query_set, reference).empty(),
         "hit counts: exact answer passes");
  Expect(!CheckHitCounts(miscounted, query_set, reference).empty(),
         "hit counts: a wrong count fails");
  Expect(!CheckHitCounts(relabelled, query_set, reference).empty(),
         "hit counts: an id carrying another's count fails");

  // A removed id that reappears.
  std::vector<int64_t> removed_ns(docs.size(), INT64_MAX);
  removed_ns[right.hits[3].id] = 100;
  Expect(CheckNotRemoved(right, removed_ns, 99).empty(),
         "removal: an id removed after the request was sent may appear");
  Expect(!CheckNotRemoved(right, removed_ns, 100).empty(),
         "removal: an id removed before the request was sent fails");

  // Removal also reaches the reference itself.
  reference.Remove(right.hits[0].id);
  reference.Counts(query, &counts);
  Expect(!CheckCountTopK(right, counts, k).empty(),
         "top-k: a removed id in the answer fails");
}

void TableChecks() {
  Rng rng(13);
  const genie::sa::RelationalTable table =
      MakeTable(500, 3, 64, 4, 4, 1.2, rng);
  const std::vector<genie::sa::RangeQuery> queries =
      MakeRangeQueries(table, 3, 5, 1, rng);
  std::vector<uint32_t> counts;
  TableCounts(table, queries[0], &counts);
  const genie::QueryHits right = TopK(counts, 10);
  Expect(CheckCountTopK(right, counts, 10).empty(),
         "table: exact answer passes");
  genie::QueryHits miscounted = right;
  miscounted.hits[0].match_count += 1;
  miscounted.hits[0].score += 1;
  Expect(!CheckCountTopK(miscounted, counts, 10).empty(),
         "table: a wrong predicate count fails");
}

void AnnChecks() {
  Rng rng(17);
  const genie::data::PointMatrix points =
      MakeClusteredPoints(2000, 8, 10, 1.0, 10.0, rng);
  const genie::data::PointMatrix queries =
      MakeQueriesNear(points, 1, 0.5, rng);
  const std::span<const float> query = queries.row(0);
  const uint32_t k = 10;
  std::vector<std::pair<double, uint32_t>> ranked;
  for (uint32_t i = 0; i < points.num_points(); ++i) {
    ranked.push_back({L2(points.row(i), query), i});
  }
  std::sort(ranked.begin(), ranked.end());
  genie::QueryHits right;
  for (uint32_t i = 0; i < k; ++i) {
    right.hits.push_back({ranked[i].second, 0, -ranked[i].first});
  }
  const double kth = KthDistance(points, query, k);
  Expect(kth == ranked[k - 1].first, "ann: k-th distance is exact");
  uint32_t within = 0;
  Expect(CheckAnn(right, points, query, k, kth, &within).empty() &&
             within == k,
         "ann: exact answer passes with full recall");

  genie::QueryHits swapped = right;
  swapped.hits[4].id = ranked[500].second;
  within = 0;
  Expect(!CheckAnn(swapped, points, query, k, kth, &within).empty(),
         "ann: a swapped id fails");

  genie::QueryHits far = right;
  far.hits.back() = {ranked[500].second, 0, -ranked[500].first};
  within = 0;
  Expect(CheckAnn(far, points, query, k, kth, &within).empty() &&
             within == k - 1,
         "ann: a farther but truthfully scored hit lowers recall");

  genie::QueryHits rescored = right;
  rescored.hits[0].score *= 0.5;
  Expect(!CheckAnn(rescored, points, query, k, kth, &within).empty(),
         "ann: a score that is not the exact distance fails");

  genie::QueryHits reordered = right;
  std::swap(reordered.hits[0], reordered.hits[5]);
  Expect(!CheckAnn(reordered, points, query, k, kth, &within).empty(),
         "ann: an unordered answer fails");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::DocumentChecks();
  perfbench::TableChecks();
  perfbench::AnnChecks();
  std::printf("%d check(s) let a corrupted answer through\n",
              perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
