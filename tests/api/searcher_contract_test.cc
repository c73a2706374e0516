/// Searcher contract suite: the surface every modality shares through the
/// facade, checked on all six — the data generation the serving cache keys
/// on, the id watermark behind num_objects(), the planner report, and
/// Save -> Open of a mutated engine answering like the live one.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/genie.h"
#include "api_test_util.h"
#include "common/rng.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/relational_data.h"
#include "data/sequences.h"
#include "test_util.h"

namespace genie {
namespace {

/// Dispatch essentially at once; the hot-query cache stays at its default.
ServingOptions FastServing() {
  ServingOptions serving;
  serving.max_queue_delay_s = 1e-4;
  return serving;
}

/// One modality's dataset, the two objects the suite inserts, and its
/// queries: `probe` asks for the first inserted object, `batch` adds base
/// objects beside it.
class SearcherContractTest : public ::testing::TestWithParam<Modality> {
 protected:
  void SetUp() override {
    Rng rng(300 + static_cast<uint64_t>(GetParam()));
    switch (GetParam()) {
      case Modality::kPoints: {
        data::ClusteredPointsOptions options;
        options.num_points = 300;
        options.dim = 6;
        options.num_clusters = 6;
        options.seed = 301;
        points_ = data::MakeClusteredPoints(options).points;
        // Far from the clustered base: no base point ties the new rows.
        new_points_ = data::PointMatrix(2, 6);
        for (uint32_t r = 0; r < 2; ++r) {
          for (float& v : new_points_.mutable_row(r)) v = 100.0f * (r + 1);
        }
        probe_points_ = data::PointMatrix(1, 6);
        batch_points_ = data::PointMatrix(3, 6);
        for (uint32_t c = 0; c < 6; ++c) {
          probe_points_.mutable_row(0)[c] = new_points_.row(0)[c];
          batch_points_.mutable_row(0)[c] = points_.row(7)[c];
          batch_points_.mutable_row(1)[c] = points_.row(150)[c];
          batch_points_.mutable_row(2)[c] = new_points_.row(0)[c];
        }
        base_ = 300;
        config_ = EngineConfig()
                      .Points(&points_)
                      .K(3)
                      .HashFunctions(16)
                      .RehashDomain(64)
                      .ExactRerank(true);
        break;
      }
      case Modality::kSets: {
        auto random_set = [&] {
          std::vector<uint32_t> set;
          for (int i = 0; i < 10; ++i) {
            set.push_back(static_cast<uint32_t>(rng.UniformU64(4000)));
          }
          return set;
        };
        sets_.resize(150);
        for (auto& set : sets_) set = random_set();
        new_sets_ = {random_set(), random_set()};
        probe_sets_ = {new_sets_[0]};
        batch_sets_ = {sets_[3], sets_[99], new_sets_[0]};
        base_ = 150;
        config_ = EngineConfig()
                      .Sets(&sets_)
                      .K(3)
                      .HashFunctions(24)
                      .RehashDomain(256)
                      .ExactRerank(true);
        break;
      }
      case Modality::kSequences: {
        data::SequenceDatasetOptions options;
        options.num_sequences = 200;
        options.min_length = 20;
        options.max_length = 30;
        options.seed = 304;
        sequences_ = data::MakeSequences(options);
        new_sequences_ = {"zzqzzqzzqzzqzzqzzqzzq", "qqzqqzqqzqqzqqzqqzqq"};
        probe_sequences_ = {new_sequences_[0]};
        batch_sequences_ = {sequences_[5], sequences_[120], new_sequences_[0]};
        base_ = 200;
        config_ = EngineConfig()
                      .Sequences(&sequences_)
                      .K(1)
                      .CandidateK(16)
                      .Ngram(3)
                      .EscalateUntilExact(true);
        break;
      }
      case Modality::kDocuments: {
        data::DocumentDatasetOptions options;
        options.num_documents = 250;
        options.vocabulary = 1500;
        options.seed = 305;
        documents_ = data::MakeDocuments(options);
        // Tokens beyond the base vocabulary grow the token universe.
        new_documents_ = {{3000, 3001, 3002, 7, 11}, {3100, 3101, 5}};
        probe_documents_ = {new_documents_[0]};
        batch_documents_ = {documents_[2], documents_[200], new_documents_[0]};
        base_ = 250;
        config_ = EngineConfig().Documents(&documents_).K(3);
        break;
      }
      case Modality::kRelational: {
        data::RelationalDatasetOptions options;
        options.num_rows = 800;
        options.numeric_columns = 3;
        options.numeric_buckets = 64;
        options.categorical_columns = 2;
        options.categorical_cardinality = 6;
        options.seed = 306;
        table_ = data::MakeRelationalTable(options);
        new_rows_ = {{63, 0, 63, 5, 5}, {62, 1, 62, 4, 4}};
        sa::RangeQuery exact;
        for (uint32_t c = 0; c < 5; ++c) {
          exact.items.push_back({c, new_rows_[0][c], new_rows_[0][c]});
        }
        sa::RangeQuery wide;
        wide.Add(0, 0, 20).Add(3, 2, 2);
        probe_ranges_ = {exact};
        batch_ranges_ = {wide, exact};
        base_ = 800;
        config_ = EngineConfig().Table(&table_).K(10);
        break;
      }
      case Modality::kCompiled: {
        workload_ = test::MakeRandomWorkload(300, 50, 6, 6, 4, 307);
        // Keywords 60+ lie beyond the index vocabulary.
        new_objects_ = {{60, 61, 62, 63, 64, 65}, {70, 71, 72}};
        Query probe;
        for (Keyword kw : new_objects_[0]) probe.AddItem(kw);
        probe_compiled_ = {probe};
        batch_compiled_ = workload_.queries;
        batch_compiled_.push_back(probe);
        base_ = 300;
        config_ = EngineConfig().Index(&workload_.index).K(5);
        break;
      }
    }
    config_.Device(test::SharedTestDevice(2))
        .Devices(test::MaxTestDevices())
        .Serving(FastServing());
  }

  SearchRequest Probe() const { return Request(/*probe=*/true); }
  SearchRequest Batch() const { return Request(/*probe=*/false); }

  InsertRequest Inserts() const {
    switch (GetParam()) {
      case Modality::kPoints: return InsertRequest::Points(new_points_);
      case Modality::kSets: return InsertRequest::Sets(new_sets_);
      case Modality::kSequences:
        return InsertRequest::Sequences(new_sequences_);
      case Modality::kDocuments:
        return InsertRequest::Documents(new_documents_);
      case Modality::kRelational: return InsertRequest::Rows(new_rows_);
      case Modality::kCompiled: return InsertRequest::Objects(new_objects_);
    }
    return InsertRequest();
  }

  /// A compiled bundle carries its own index: it reopens without a binding.
  EngineConfig OpenConfig() const {
    if (GetParam() != Modality::kCompiled) return config_;
    return EngineConfig()
        .K(5)
        .Device(test::SharedTestDevice(2))
        .Devices(test::MaxTestDevices())
        .Serving(FastServing());
  }

  std::string TempPath() const {
    return (std::filesystem::temp_directory_path() /
            (std::string("genie_contract_") + ModalityToString(GetParam()) +
             ".gnb"))
        .string();
  }

  EngineConfig config_;
  uint32_t base_ = 0;

 private:
  SearchRequest Request(bool probe) const {
    switch (GetParam()) {
      case Modality::kPoints:
        return SearchRequest::Points(probe ? probe_points_ : batch_points_);
      case Modality::kSets:
        return SearchRequest::Sets(probe ? probe_sets_ : batch_sets_);
      case Modality::kSequences:
        return SearchRequest::Sequences(probe ? probe_sequences_
                                              : batch_sequences_);
      case Modality::kDocuments:
        return SearchRequest::Documents(probe ? probe_documents_
                                              : batch_documents_);
      case Modality::kRelational:
        return SearchRequest::Ranges(probe ? probe_ranges_ : batch_ranges_);
      case Modality::kCompiled:
        return SearchRequest::Compiled(probe ? probe_compiled_
                                             : batch_compiled_);
    }
    return SearchRequest();
  }

  data::PointMatrix points_, new_points_, probe_points_, batch_points_;
  std::vector<std::vector<uint32_t>> sets_, new_sets_, probe_sets_,
      batch_sets_;
  std::vector<std::string> sequences_, new_sequences_, probe_sequences_,
      batch_sequences_;
  std::vector<std::vector<uint32_t>> documents_, new_documents_,
      probe_documents_, batch_documents_;
  sa::RelationalTable table_;
  std::vector<std::vector<uint32_t>> new_rows_;
  std::vector<sa::RangeQuery> probe_ranges_, batch_ranges_;
  test::RandomWorkload workload_;
  std::vector<std::vector<Keyword>> new_objects_;
  std::vector<Query> probe_compiled_, batch_compiled_;
};

/// Whether the serving layer answered `request` from its result cache,
/// which serves an entry only under the data generation it was cached at.
bool ServedFromCache(Engine* engine, const SearchRequest& request) {
  const uint64_t hits = engine->serving_stats().cache_hits;
  const Result<SearchResult> result = engine->Search(request);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return engine->serving_stats().cache_hits > hits;
}

TEST_P(SearcherContractTest, DataGenerationBumpsOnMutationsOnly) {
  auto engine = Engine::Create(config_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine* e = engine->get();

  // Searching never bumps the generation: a repeated query hits the cache.
  EXPECT_FALSE(ServedFromCache(e, Probe()));
  EXPECT_TRUE(ServedFromCache(e, Probe()));
  EXPECT_TRUE(ServedFromCache(e, Probe()));

  ASSERT_TRUE(e->Insert(Inserts()).ok());
  EXPECT_FALSE(ServedFromCache(e, Probe())) << "Insert must bump";
  EXPECT_TRUE(ServedFromCache(e, Probe()));

  ASSERT_TRUE(e->Remove(std::vector<ObjectId>{base_ + 1}).ok());
  EXPECT_FALSE(ServedFromCache(e, Probe())) << "Remove must bump";
  EXPECT_TRUE(ServedFromCache(e, Probe()));

  // Flush compacts the delta and hot-swaps the index.
  const uint64_t compactions = e->mutation_stats().compactions;
  ASSERT_TRUE(e->Flush().ok());
  EXPECT_GT(e->mutation_stats().compactions, compactions);
  EXPECT_FALSE(ServedFromCache(e, Probe())) << "compaction must bump";
  EXPECT_TRUE(ServedFromCache(e, Probe()));
}

TEST_P(SearcherContractTest, NumObjectsFollowsTheIdWatermark) {
  auto engine = Engine::Create(config_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->num_objects(), base_);

  auto ids = (*engine)->Insert(Inserts());
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, (std::vector<ObjectId>{base_, base_ + 1}));
  EXPECT_EQ((*engine)->num_objects(), base_ + 2);

  // Removal and compaction never roll the watermark back.
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{base_ + 1}).ok());
  EXPECT_EQ((*engine)->num_objects(), base_ + 2);
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->num_objects(), base_ + 2);

  const std::string path = TempPath();
  ASSERT_TRUE((*engine)->Save(path).ok());
  auto reopened = Engine::Open(path, OpenConfig());
  std::remove(path.c_str());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(), base_ + 2);

  // The reopened engine continues the id sequence.
  ids = (*reopened)->Insert(Inserts());
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, (std::vector<ObjectId>{base_ + 2, base_ + 3}));
  EXPECT_EQ((*reopened)->num_objects(), base_ + 4);
}

TEST_P(SearcherContractTest, ReportsItsPlan) {
  auto engine = Engine::Create(config_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = (*engine)->Search(Batch());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->profile.planned);
  EXPECT_GT(result->profile.planned_chunk_size, 0u);
  EXPECT_FALSE(result->profile.plan_tier.empty());
  EXPECT_NE((*engine)->ExplainPlan().find("planner: on"), std::string::npos)
      << (*engine)->ExplainPlan();
}

TEST_P(SearcherContractTest, ReopenedMutatedEngineAnswersLikeTheLiveOne) {
  auto engine = Engine::Create(config_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->Insert(Inserts()).ok());
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{base_ + 1, 0}).ok());
  auto live = (*engine)->Search(Batch());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  // The probe finds the inserted object it was made from.
  auto probe = (*engine)->Search(Probe());
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  ASSERT_FALSE(probe->queries[0].hits.empty());
  EXPECT_EQ(probe->queries[0].hits[0].id, base_);

  const std::string path = TempPath();
  ASSERT_TRUE((*engine)->Save(path).ok());
  auto reopened = Engine::Open(path, OpenConfig());
  std::remove(path.c_str());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto restored = (*reopened)->Search(Batch());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  test::ExpectSameAnswers(*restored, *live, "reopened");
  for (size_t q = 0; q < live->queries.size(); ++q) {
    EXPECT_EQ(restored->queries[q].certified_exact,
              live->queries[q].certified_exact);
    EXPECT_EQ(restored->queries[q].rounds, live->queries[q].rounds);
  }
  EXPECT_EQ((*reopened)->Remove(std::vector<ObjectId>{base_ + 1}).code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Modalities, SearcherContractTest,
    ::testing::Values(Modality::kPoints, Modality::kSets,
                      Modality::kSequences, Modality::kDocuments,
                      Modality::kRelational, Modality::kCompiled),
    [](const ::testing::TestParamInfo<Modality>& info) {
      return std::string(ModalityToString(info.param));
    });

}  // namespace
}  // namespace genie
