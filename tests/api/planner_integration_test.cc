/// Facade-level planner contract: the plan the backend executes must be
/// invisible in the results. Every modality answers like a single-load
/// reference at every device count of the sweep — a brute-force count over
/// the index for the keyword modalities, the domain searcher's compiled
/// queries run directly on a single-load MatchEngine for the LSH and
/// sequence modalities — the profile carries the plan facts, ExplainPlan
/// reports the live schedule, and bundles persist IndexStats that equal a
/// fresh recompute.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/genie.h"
#include "api_test_util.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/match_engine.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "lsh/e2lsh.h"
#include "lsh/lsh_searcher.h"
#include "lsh/min_hash.h"
#include "lsh/set_searcher.h"
#include "plan/index_stats.h"
#include "sa/document_searcher.h"
#include "sa/edit_distance.h"
#include "sa/relational.h"
#include "sa/sequence_searcher.h"
#include "test_util.h"

namespace genie {
namespace {

using test::DeviceSweep;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// Per query, the match counts of the hits in descending order.
std::vector<std::vector<uint32_t>> HitCounts(const SearchResult& result) {
  std::vector<std::vector<uint32_t>> counts(result.queries.size());
  for (size_t q = 0; q < result.queries.size(); ++q) {
    for (const Hit& hit : result.queries[q].hits) {
      counts[q].push_back(hit.match_count);
    }
    std::sort(counts[q].begin(), counts[q].end(), std::greater<>());
  }
  return counts;
}

/// Per query, the top-k match-count multiset a single-load MatchEngine
/// returns for `compiled` over `index`.
std::vector<std::vector<uint32_t>> SingleLoadCounts(
    const InvertedIndex& index, std::span<const Query> compiled, uint32_t k) {
  MatchEngineOptions options;
  options.k = k;
  options.device = test::SharedTestDevice(2);
  auto engine = MatchEngine::Create(&index, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return {};
  auto results = (*engine)->ExecuteBatch(compiled);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  if (!results.ok()) return {};
  std::vector<std::vector<uint32_t>> counts;
  for (const QueryResult& result : *results) {
    counts.push_back(test::EntryCountMultiset(result));
  }
  return counts;
}

/// Per query, the top-k match-count multiset of a brute-force count.
std::vector<std::vector<uint32_t>> BruteForceTopK(
    const InvertedIndex& index, std::span<const Query> compiled, uint32_t k) {
  std::vector<std::vector<uint32_t>> counts;
  for (const Query& query : compiled) {
    counts.push_back(
        test::TopKCountMultiset(test::BruteForceCounts(index, query), k));
  }
  return counts;
}

/// The planned engine of `make_config` at every device count must answer
/// `want` (a per-query value multiset read off the result by `read`), and
/// its profile must say the planner produced the tier.
template <typename MakeConfig, typename MakeRequest, typename Read,
          typename Want>
void CheckPlannedAnswers(MakeConfig make_config, MakeRequest make_request,
                         Read read, const Want& want) {
  for (uint32_t devices : DeviceSweep()) {
    auto engine = Engine::Create(make_config().Devices(devices));
    ASSERT_TRUE(engine.ok())
        << devices << " devices: " << engine.status().ToString();
    auto result = (*engine)->Search(make_request());
    ASSERT_TRUE(result.ok())
        << devices << " devices: " << result.status().ToString();
    EXPECT_TRUE(result->profile.planned) << "at " << devices << " devices";
    EXPECT_FALSE(result->profile.plan_tier.empty());
    EXPECT_EQ(read(*result), want)
        << "planned answers vs the reference at " << devices << " devices";
  }
}

template <typename MakeConfig, typename MakeRequest>
void CheckPlannedCounts(MakeConfig make_config, MakeRequest make_request,
                        const std::vector<std::vector<uint32_t>>& want) {
  CheckPlannedAnswers(make_config, make_request, HitCounts, want);
}

TEST(PlannerIntegrationTest, PointsPlanMatchesEscalationPath) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 400;
  data_options.dim = 6;
  data_options.num_clusters = 8;
  data_options.seed = 91;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 4, 0.1, 92);

  lsh::E2LshOptions lsh_options;
  lsh_options.dim = dataset.points.dim();
  lsh_options.num_functions = 16;
  lsh_options.seed = 93;
  auto e2lsh = lsh::E2LshFamily::Create(lsh_options);
  ASSERT_TRUE(e2lsh.ok());
  std::shared_ptr<const lsh::VectorLshFamily> family(
      std::move(e2lsh).ValueOrDie());

  // The domain searcher with the facade's transform settings compiles the
  // queries; the reference runs them directly on a single-load engine.
  lsh::LshSearchOptions options;
  options.transform.rehash_domain = 64;
  options.transform.seed = 93;
  options.engine.k = 5;
  options.engine.device = test::SharedTestDevice(2);
  auto searcher = lsh::LshSearcher::Create(&dataset.points, family, options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  std::vector<Query> compiled;
  for (uint32_t i = 0; i < queries.num_points(); ++i) {
    compiled.push_back((*searcher)->transformer().MakeQuery(queries.row(i)));
  }
  const auto want =
      SingleLoadCounts((*searcher)->index(), compiled, options.engine.k);

  CheckPlannedCounts(
      [&] {
        return EngineConfig()
            .Points(&dataset.points)
            .VectorFamily(family)
            .K(5)
            .RehashDomain(64)
            .Seed(93)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Points(queries); }, want);
}

TEST(PlannerIntegrationTest, SetsPlanMatchesEscalationPath) {
  Rng rng(94);
  std::vector<std::vector<uint32_t>> sets(150);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(3000)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{sets[0], sets[75], sets[149]};

  lsh::MinHashOptions minhash;
  minhash.num_functions = 16;
  minhash.seed = 95;
  auto min_hash = lsh::MinHashFamily::Create(minhash);
  ASSERT_TRUE(min_hash.ok());
  std::shared_ptr<const lsh::SetLshFamily> family(
      std::move(min_hash).ValueOrDie());

  lsh::SetSearchOptions options;
  options.transform.rehash_domain = 128;
  options.transform.seed = 95;
  options.engine.k = 4;
  options.engine.device = test::SharedTestDevice(2);
  auto searcher = lsh::SetLshSearcher::Create(&sets, family, options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  std::vector<Query> compiled;
  for (const auto& query : queries) {
    compiled.push_back((*searcher)->MakeQuery(query));
  }
  const auto want =
      SingleLoadCounts((*searcher)->index(), compiled, options.engine.k);

  CheckPlannedCounts(
      [&] {
        return EngineConfig()
            .Sets(&sets)
            .SetFamily(family)
            .K(4)
            .RehashDomain(128)
            .Seed(95)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sets(queries); }, want);
}

TEST(PlannerIntegrationTest, SequencesPlanMatchesEscalationPath) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 150;
  data_options.min_length = 15;
  data_options.max_length = 25;
  data_options.seed = 96;
  auto sequences = data::MakeSequences(data_options);
  std::vector<std::string> queries{sequences[3], sequences[70],
                                   sequences[149]};
  constexpr uint32_t kNn = 2;
  constexpr uint32_t kCandidates = 16;

  // Reference: the domain searcher's n-gram queries on a single-load
  // engine, verified (Algorithm 2) by exact edit distance over the K
  // candidates; the answer is the multiset of the k smallest distances.
  sa::SequenceSearchOptions options;
  options.ngram = 3;
  options.k = kNn;
  options.candidate_k = kCandidates;
  options.engine.device = test::SharedTestDevice(2);
  auto searcher = sa::SequenceSearcher::Create(&sequences, options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  std::vector<Query> compiled;
  for (const std::string& query : queries) {
    compiled.push_back((*searcher)->Compile(query));
  }
  MatchEngineOptions engine_options;
  engine_options.k = kCandidates;
  engine_options.device = test::SharedTestDevice(2);
  auto engine = MatchEngine::Create(&(*searcher)->index(), engine_options);
  ASSERT_TRUE(engine.ok());
  auto candidates = (*engine)->ExecuteBatch(compiled);
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  std::vector<std::vector<double>> want(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const TopKEntry& e : (*candidates)[q].entries) {
      want[q].push_back(-static_cast<double>(
          sa::EditDistance(queries[q], sequences[e.id])));
    }
    std::sort(want[q].begin(), want[q].end(), std::greater<>());
    if (want[q].size() > kNn) want[q].resize(kNn);
  }

  CheckPlannedAnswers(
      [&] {
        return EngineConfig()
            .Sequences(&sequences)
            .K(kNn)
            .CandidateK(kCandidates)
            .Ngram(3)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sequences(queries); },
      [](const SearchResult& result) {
        std::vector<std::vector<double>> scores(result.queries.size());
        for (size_t q = 0; q < result.queries.size(); ++q) {
          for (const Hit& hit : result.queries[q].hits) {
            scores[q].push_back(hit.score);
          }
          std::sort(scores[q].begin(), scores[q].end(), std::greater<>());
        }
        return scores;
      },
      want);
}

TEST(PlannerIntegrationTest, DocumentsPlanMatchesEscalationPath) {
  Rng rng(97);
  std::vector<std::vector<uint32_t>> corpus(200);
  for (auto& doc : corpus) {
    for (int i = 0; i < 8; ++i) {
      doc.push_back(static_cast<uint32_t>(rng.UniformU64(500)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{corpus[0], corpus[100],
                                             corpus[199]};

  // The domain searcher builds the same index and compiles the queries;
  // the reference counts them by brute force.
  sa::DocumentSearchOptions options;
  options.k = 4;
  options.engine.device = test::SharedTestDevice(2);
  auto searcher = sa::DocumentSearcher::Create(&corpus, options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  std::vector<Query> compiled;
  for (const auto& query : queries) {
    compiled.push_back((*searcher)->Compile(query));
  }
  const auto want = BruteForceTopK((*searcher)->index(), compiled, 4);

  CheckPlannedCounts(
      [&] {
        return EngineConfig().Documents(&corpus).K(4).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Documents(queries); }, want);
}

TEST(PlannerIntegrationTest, RelationalPlanMatchesEscalationPath) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 300;
  data_options.numeric_columns = 2;
  data_options.numeric_buckets = 16;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 5;
  data_options.seed = 98;
  auto table = data::MakeRelationalTable(data_options);
  auto queries = data::MakeExactMatchQueries(table, 4, 99);

  MatchEngineOptions engine_options;
  engine_options.device = test::SharedTestDevice(2);
  auto searcher = sa::RelationalSearcher::Create(&table, 3, engine_options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  std::vector<Query> compiled;
  for (const sa::RangeQuery& query : queries) {
    auto lowered = (*searcher)->Compile(query);
    ASSERT_TRUE(lowered.ok());
    compiled.push_back(std::move(lowered).ValueOrDie());
  }
  const auto want = BruteForceTopK((*searcher)->index(), compiled, 3);

  CheckPlannedCounts(
      [&] {
        return EngineConfig().Table(&table).K(3).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Ranges(queries); }, want);
}

TEST(PlannerIntegrationTest, CompiledPlanMatchesEscalationPath) {
  auto workload = test::MakeRandomWorkload(500, 60, 5, 6, 4, 100);
  CheckPlannedCounts(
      [&] {
        return EngineConfig()
            .Index(&workload.index)
            .K(5)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Compiled(workload.queries); },
      BruteForceTopK(workload.index, workload.queries, 5));
}

TEST(PlannerIntegrationTest, ExplainPlanReportsTheLiveSchedule) {
  auto workload = test::MakeRandomWorkload(300, 40, 4, 2, 3, 101);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(4)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string report = (*engine)->ExplainPlan();
  EXPECT_NE(report.find("planner: on"), std::string::npos) << report;
  EXPECT_NE(report.find("tier=single-device"), std::string::npos) << report;
  EXPECT_NE(report.find("objects=300"), std::string::npos) << report;
  EXPECT_NE(report.find("margin"), std::string::npos) << report;
}

TEST(PlannerIntegrationTest, ProfileCarriesPlanFacts) {
  auto workload = test::MakeRandomWorkload(400, 50, 5, 3, 3, 102);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(4)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->profile.planned);  // planner is the default
  EXPECT_EQ(result->profile.plan_tier, "single-device");
  EXPECT_GE(result->profile.planned_chunk_size, 1u);
}

/// Parses the stats section straight out of a GNIEBNDL v3 file:
/// magic | u32 version | u32 modality | u64 meta | meta | u64 mutation |
/// mutation | u64 stats | stats blob | ...
plan::IndexStats ReadBundleStats(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t pos = 8;  // magic
  auto read_u32 = [&](size_t at) {
    uint32_t v;
    std::memcpy(&v, file.data() + at, sizeof(v));
    return v;
  };
  auto read_u64 = [&](size_t at) {
    uint64_t v;
    std::memcpy(&v, file.data() + at, sizeof(v));
    return v;
  };
  EXPECT_EQ(read_u32(pos), 3u);  // v3
  pos += 4 + 4;                  // version + modality
  pos += 8 + read_u64(pos);      // meta
  pos += 8 + read_u64(pos);      // mutation
  const uint64_t stats_bytes = read_u64(pos);
  pos += 8;
  serialize::Reader reader(
      std::string_view(file).substr(pos, static_cast<size_t>(stats_bytes)));
  plan::IndexStats stats;
  EXPECT_TRUE(plan::DeserializeIndexStats(&reader, &stats).ok());
  return stats;
}

TEST(PlannerIntegrationTest, BundlePersistsStatsEqualToRecompute) {
  auto workload = test::MakeRandomWorkload(350, 45, 5, 4, 3, 103);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(4)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("genie_planner_stats_bundle.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());

  // The persisted blob equals a fresh recompute over the same index.
  const plan::IndexStats persisted = ReadBundleStats(path);
  const plan::IndexStats recomputed = plan::ComputeIndexStats(workload.index);
  EXPECT_EQ(persisted, recomputed);
  EXPECT_TRUE(persisted.MatchesIndex(workload.index));

  // The reopened engine plans from the persisted stats (no re-scan) and
  // answers identically.
  auto reference = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());
  auto reopened = Engine::Open(path, EngineConfig().K(4).Device(
                                         test::SharedTestDevice(2)));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NE((*reopened)->ExplainPlan().find("stats: persisted"),
            std::string::npos)
      << (*reopened)->ExplainPlan();
  auto result = (*reopened)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(result.ok());
  test::ExpectSameAnswers(*result, *reference, "persisted-stats reopen");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genie
