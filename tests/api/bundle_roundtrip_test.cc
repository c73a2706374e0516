/// Engine bundle persistence round-trip: for every modality, a saved and
/// reopened engine must answer a shared query set identically to the
/// in-memory engine it was saved from — across uncompressed / compressed
/// postings and a GENIE_TEST_NUM_DEVICES-aware 1/2/4-device sweep (a
/// bundle opened with Devices(n) shards onto the multi-device tier without
/// rebuilding). Also covers the Open validation surface: wrong modality,
/// wrong dataset shape, ignored transform knobs, unsupported families.

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
#include "lsh/random_binning.h"
#include "test_util.h"

namespace genie {
namespace {

using test::DeviceSweep;
using test::ExpectSameAnswers;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Builds the engine, saves it in both postings formats, reopens each
/// bundle at every device count of the sweep, and requires the answers to
/// match the in-memory engine on the shared query set.
template <typename MakeConfig, typename MakeRequest>
void CheckBundleRoundTrip(const std::string& name, MakeConfig make_config,
                          MakeRequest make_request) {
  auto engine = Engine::Create(make_config());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto reference = (*engine)->Search(make_request());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const bool compressed : {false, true}) {
    const std::string path = TempPath(
        "genie_bundle_" + name + (compressed ? "_packed" : "_raw") + ".gnb");
    BundleSaveOptions save_options;
    save_options.compress_postings = compressed;
    ASSERT_TRUE((*engine)->Save(path, save_options).ok());

    for (const uint32_t devices : DeviceSweep()) {
      const std::string label = name + (compressed ? " packed" : " raw") +
                                " at " + std::to_string(devices) + " devices";
      auto reopened = Engine::Open(path, make_config().Devices(devices));
      ASSERT_TRUE(reopened.ok()) << label << ": "
                                 << reopened.status().ToString();
      EXPECT_EQ((*reopened)->modality(), (*engine)->modality()) << label;
      EXPECT_EQ((*reopened)->num_objects(), (*engine)->num_objects()) << label;

      auto result = (*reopened)->Search(make_request());
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      ExpectSameAnswers(*result, *reference, label);
      EXPECT_EQ(result->profile.devices, devices) << label;
    }
    std::remove(path.c_str());
  }
}

TEST(BundleRoundTripTest, Points) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 300;
  data_options.dim = 6;
  data_options.num_clusters = 6;
  data_options.seed = 101;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 4, 0.1, 102);

  CheckBundleRoundTrip(
      "points",
      [&] {
        return EngineConfig()
            .Points(&dataset.points)
            .K(5)
            .HashFunctions(16)
            .RehashDomain(64)
            .Seed(103)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Points(queries); });
}

TEST(BundleRoundTripTest, PointsWithExactRerank) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 200;
  data_options.dim = 5;
  data_options.num_clusters = 5;
  data_options.seed = 104;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 3, 0.1, 105);

  CheckBundleRoundTrip(
      "points_rerank",
      [&] {
        return EngineConfig()
            .Points(&dataset.points)
            .K(4)
            .HashFunctions(12)
            .RehashDomain(64)
            .Seed(106)
            .ExactRerank(true)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Points(queries); });
}

TEST(BundleRoundTripTest, Sets) {
  Rng rng(107);
  std::vector<std::vector<uint32_t>> sets(120);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(2000)));
    }
  }
  std::vector<std::vector<uint32_t>> queries{sets[0], sets[60], sets[119]};

  CheckBundleRoundTrip(
      "sets",
      [&] {
        return EngineConfig()
            .Sets(&sets)
            .K(4)
            .HashFunctions(16)
            .RehashDomain(128)
            .Seed(108)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sets(queries); });
}

TEST(BundleRoundTripTest, Sequences) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 120;
  data_options.min_length = 15;
  data_options.max_length = 25;
  data_options.seed = 109;
  auto sequences = data::MakeSequences(data_options);
  std::vector<std::string> queries{sequences[3], sequences[60],
                                   sequences[119]};

  CheckBundleRoundTrip(
      "sequences",
      [&] {
        return EngineConfig()
            .Sequences(&sequences)
            .K(2)
            .CandidateK(16)
            .Ngram(3)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sequences(queries); });
}

TEST(BundleRoundTripTest, Documents) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 150;
  data_options.vocabulary = 800;
  data_options.seed = 110;
  auto corpus = data::MakeDocuments(data_options);
  std::vector<std::vector<uint32_t>> queries{corpus[7], corpus[80],
                                             corpus[149]};

  CheckBundleRoundTrip(
      "documents",
      [&] {
        return EngineConfig().Documents(&corpus).K(3).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Documents(queries); });
}

// The last base object yields no keyword (a sequence shorter than n, an
// empty document); the index still spans every base id, so the bundle
// reopens.
TEST(BundleRoundTripTest, TrailingKeywordlessSequence) {
  std::vector<std::string> sequences{"abcdefgh", "bcdefghi", "ab"};
  std::vector<std::string> queries{"abcdefgx", "ab"};
  CheckBundleRoundTrip(
      "trailing_sequence",
      [&] {
        return EngineConfig()
            .Sequences(&sequences)
            .K(1)
            .CandidateK(2)
            .Ngram(3)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sequences(queries); });
}

TEST(BundleRoundTripTest, TrailingEmptyDocument) {
  std::vector<std::vector<uint32_t>> documents{{1, 2}, {3, 4}, {}};
  std::vector<std::vector<uint32_t>> queries{{1, 3}, {4}};
  CheckBundleRoundTrip(
      "trailing_document",
      [&] {
        return EngineConfig().Documents(&documents).K(2).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Documents(queries); });
}

TEST(BundleRoundTripTest, Relational) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 400;
  data_options.numeric_columns = 3;
  data_options.numeric_buckets = 32;
  data_options.categorical_columns = 2;
  data_options.categorical_cardinality = 5;
  data_options.seed = 111;
  auto table = data::MakeRelationalTable(data_options);
  auto queries = data::MakeRangeQueries(table, 4, 3, 5, 112);

  CheckBundleRoundTrip(
      "relational",
      [&] {
        return EngineConfig().Table(&table).K(5).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Ranges(queries); });
}

TEST(BundleRoundTripTest, Compiled) {
  auto workload = test::MakeRandomWorkload(300, 50, 6, 6, 4, 113);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(6)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto reference =
      (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(reference.ok());

  for (const bool compressed : {false, true}) {
    const std::string path = TempPath(
        std::string("genie_bundle_compiled") +
        (compressed ? "_packed" : "_raw") + ".gnb");
    BundleSaveOptions save_options;
    save_options.compress_postings = compressed;
    ASSERT_TRUE((*engine)->Save(path, save_options).ok());

    for (const uint32_t devices : DeviceSweep()) {
      const std::string label =
          std::string("compiled at ") + std::to_string(devices) + " devices";
      // A compiled bundle carries its own index: no dataset binding.
      auto reopened = Engine::Open(path, EngineConfig()
                                             .K(6)
                                             .Devices(devices)
                                             .Device(test::SharedTestDevice(2)));
      ASSERT_TRUE(reopened.ok()) << label << ": "
                                 << reopened.status().ToString();
      EXPECT_EQ((*reopened)->modality(), Modality::kCompiled);
      EXPECT_EQ((*reopened)->num_objects(), workload.index.num_objects());
      auto result =
          (*reopened)->Search(SearchRequest::Compiled(workload.queries));
      ASSERT_TRUE(result.ok()) << label;
      ExpectSameAnswers(*result, *reference, label);
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Save -> Open -> Save again: a reopened engine is itself persistable.
// ---------------------------------------------------------------------------

TEST(BundleRoundTripTest, ReopenedEngineSavesAgain) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 200;
  data_options.numeric_columns = 2;
  data_options.numeric_buckets = 16;
  data_options.categorical_columns = 1;
  data_options.categorical_cardinality = 4;
  data_options.seed = 114;
  auto table = data::MakeRelationalTable(data_options);
  auto queries = data::MakeRangeQueries(table, 3, 2, 4, 115);

  const auto config = [&] {
    return EngineConfig().Table(&table).K(4).Device(test::SharedTestDevice(2));
  };
  auto engine = Engine::Create(config());
  ASSERT_TRUE(engine.ok());
  auto reference = (*engine)->Search(SearchRequest::Ranges(queries));
  ASSERT_TRUE(reference.ok());

  const std::string first = TempPath("genie_bundle_regen_1.gnb");
  const std::string second = TempPath("genie_bundle_regen_2.gnb");
  ASSERT_TRUE((*engine)->Save(first).ok());
  auto reopened = Engine::Open(first, config());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->Save(second).ok());
  auto reopened_twice = Engine::Open(second, config());
  ASSERT_TRUE(reopened_twice.ok()) << reopened_twice.status().ToString();

  auto result = (*reopened_twice)->Search(SearchRequest::Ranges(queries));
  ASSERT_TRUE(result.ok());
  ExpectSameAnswers(*result, *reference, "second-generation bundle");
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// ---------------------------------------------------------------------------
// Open ignores transform-side knobs: the saved state wins.
// ---------------------------------------------------------------------------

TEST(BundleRoundTripTest, OpenIgnoresTransformKnobs) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 200;
  data_options.dim = 5;
  data_options.num_clusters = 5;
  data_options.seed = 116;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 3, 0.1, 117);

  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(4)
                                   .HashFunctions(16)
                                   .RehashDomain(64)
                                   .Seed(118)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  auto reference = (*engine)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("genie_bundle_knobs.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());
  // Entirely different transform knobs: the reopened engine must hash with
  // the saved parameters regardless and answer identically.
  auto reopened = Engine::Open(path, EngineConfig()
                                         .Points(&dataset.points)
                                         .K(4)
                                         .HashFunctions(99)
                                         .RehashDomain(7)
                                         .Seed(999)
                                         .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto result = (*reopened)->Search(SearchRequest::Points(queries));
  ASSERT_TRUE(result.ok());
  ExpectSameAnswers(*result, *reference, "different transform knobs");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Validation surface.
// ---------------------------------------------------------------------------

TEST(BundleOpenValidationTest, MissingFileIsNotFound) {
  auto opened = Engine::Open(TempPath("genie_bundle_missing.gnb"),
                             EngineConfig());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST(BundleOpenValidationTest, WrongModalityBindingRejected) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 60;
  data_options.vocabulary = 200;
  data_options.seed = 119;
  auto corpus = data::MakeDocuments(data_options);
  auto engine = Engine::Create(EngineConfig().Documents(&corpus).K(3).Device(
      test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("genie_bundle_wrong_modality.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());

  std::vector<std::string> sequences{"abcdef", "ghijkl"};
  auto as_sequences =
      Engine::Open(path, EngineConfig().Sequences(&sequences).K(3));
  EXPECT_EQ(as_sequences.status().code(), StatusCode::kInvalidArgument);
  auto unbound = Engine::Open(path, EngineConfig());
  EXPECT_EQ(unbound.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BundleOpenValidationTest, MismatchedDatasetShapeRejected) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 60;
  data_options.vocabulary = 200;
  data_options.seed = 120;
  auto corpus = data::MakeDocuments(data_options);
  auto engine = Engine::Create(EngineConfig().Documents(&corpus).K(3).Device(
      test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("genie_bundle_wrong_shape.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());

  auto shrunk = corpus;
  shrunk.pop_back();
  auto reopened = Engine::Open(path, EngineConfig().Documents(&shrunk).K(3));
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BundleOpenValidationTest, CompiledBundleRejectsDatasetBinding) {
  auto workload = test::MakeRandomWorkload(80, 20, 4, 2, 3, 121);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(3)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  const std::string path = TempPath("genie_bundle_compiled_bound.gnb");
  ASSERT_TRUE((*engine)->Save(path).ok());

  auto bound = Engine::Open(path, EngineConfig().Index(&workload.index).K(3));
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BundleOpenValidationTest, BadKnobsRejectedBeforeReading) {
  auto opened = Engine::Open(TempPath("genie_bundle_irrelevant.gnb"),
                             EngineConfig().K(0));
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(BundleSaveValidationTest, FullDiskReportsIOError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  auto workload = test::MakeRandomWorkload(80, 20, 4, 2, 3, 123);
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(3)
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Save("/dev/full").code(), StatusCode::kIOError);
}

TEST(BundleRoundTripTest, PointsRandomBinningFamily) {
  // The OCR case study's family: Random Binning for the Laplacian kernel.
  // Its sampled grid (pitches + shifts) must round-trip so the reopened
  // engine hashes queries identically.
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 200;
  data_options.dim = 4;
  data_options.num_clusters = 4;
  data_options.seed = 122;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 4, 0.1, 123);

  CheckBundleRoundTrip(
      "points_rbh",
      [&] {
        lsh::RandomBinningOptions rb_options;
        rb_options.dim = 4;
        rb_options.num_functions = 8;
        rb_options.kernel_width = 2.0;
        auto family = lsh::RandomBinningFamily::Create(rb_options);
        GENIE_CHECK(family.ok());
        return EngineConfig()
            .Points(&dataset.points)
            .K(3)
            .MetricP(1)
            .VectorFamily(
                std::shared_ptr<const lsh::VectorLshFamily>(std::move(*family)))
            .RehashDomain(64)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Points(queries); });
}

TEST(BundleSaveValidationTest, CustomLshFamilyIsUnimplemented) {
  // A caller-supplied family the bundle format knows no tag for.
  class FlatFamily : public lsh::VectorLshFamily {
   public:
    uint32_t num_functions() const override { return 4; }
    uint64_t RawHash(uint32_t i, std::span<const float> point) const override {
      return i + static_cast<uint64_t>(point[0]);
    }
    double CollisionProbability(std::span<const float>,
                                std::span<const float>) const override {
      return 1.0;
    }
  };

  data::ClusteredPointsOptions data_options;
  data_options.num_points = 100;
  data_options.dim = 4;
  data_options.num_clusters = 4;
  data_options.seed = 122;
  auto dataset = data::MakeClusteredPoints(data_options);

  auto engine = Engine::Create(EngineConfig()
                                   .Points(&dataset.points)
                                   .K(3)
                                   .VectorFamily(std::make_shared<FlatFamily>())
                                   .Device(test::SharedTestDevice(2)));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string path = TempPath("genie_bundle_custom_family.gnb");
  EXPECT_EQ((*engine)->Save(path).code(), StatusCode::kUnimplemented);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genie
