/// Pipelined SearchStream: the two-stage (prepare chunk k+1 concurrently
/// with execute chunk k) pipeline must be invisible in the results — every
/// modality, at every device count, answers identically to the sequential
/// stream — while the profile reports the overlap of the host query
/// transform with the match, prepared chunks are drained on mid-stream
/// cancellation, and the engine stays usable afterwards.

#include <gtest/gtest.h>

#include <set>
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

using test::DeviceSweep;

/// Streams `request` twice — pipelined and sequential — through engines at
/// every device count, and requires identical answers everywhere (the
/// reference is the 1-device sequential stream).
template <typename MakeConfig, typename MakeRequest>
void CheckPipelineInvisible(MakeConfig make_config, MakeRequest make_request,
                            uint32_t chunk_size) {
  Result<SearchResult> reference = Status::Internal("unset");
  for (uint32_t devices : DeviceSweep()) {
    auto engine = Engine::Create(make_config().Devices(devices));
    ASSERT_TRUE(engine.ok())
        << devices << " devices: " << engine.status().ToString();

    SearchStreamOptions sequential;
    sequential.chunk_size = chunk_size;
    sequential.pipeline = false;
    auto seq = (*engine)->SearchStream(make_request(), sequential);
    ASSERT_TRUE(seq.ok())
        << devices << " devices: " << seq.status().ToString();
    EXPECT_EQ(seq->profile.overlap_seconds, 0);

    SearchStreamOptions pipelined;
    pipelined.chunk_size = chunk_size;
    pipelined.pipeline = true;
    auto pipe = (*engine)->SearchStream(make_request(), pipelined);
    ASSERT_TRUE(pipe.ok())
        << devices << " devices: " << pipe.status().ToString();
    EXPECT_GE(pipe->profile.overlap_seconds, 0);
    // Every tier ships its task lists inside execution: nothing of the
    // query transfer runs ahead.
    EXPECT_EQ(pipe->profile.prepare_seconds, 0);

    const std::string label =
        "pipelined vs sequential at " + std::to_string(devices) + " devices";
    test::ExpectSameAnswers(*pipe, *seq, label);
    if (devices == 1) {
      reference = std::move(seq);
      continue;
    }
    test::ExpectSameAnswers(
        *pipe, *reference,
        "pipelined at " + std::to_string(devices) + " devices vs 1-device");
  }
}

TEST(PipelinedStreamTest, PointsIdenticalAcrossDeviceCounts) {
  data::ClusteredPointsOptions data_options;
  data_options.num_points = 400;
  data_options.dim = 6;
  data_options.num_clusters = 8;
  data_options.seed = 101;
  auto dataset = data::MakeClusteredPoints(data_options);
  auto queries = data::MakeQueriesNear(dataset.points, 13, 0.1, 102);

  CheckPipelineInvisible(
      [&] {
        return EngineConfig()
            .Points(&dataset.points)
            .K(5)
            .HashFunctions(16)
            .RehashDomain(64)
            .Seed(103)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Points(queries); }, /*chunk_size=*/4);
}

TEST(PipelinedStreamTest, SetsIdenticalAcrossDeviceCounts) {
  Rng rng(104);
  std::vector<std::vector<uint32_t>> sets(150);
  for (auto& set : sets) {
    for (int i = 0; i < 10; ++i) {
      set.push_back(static_cast<uint32_t>(rng.UniformU64(3000)));
    }
  }
  std::vector<std::vector<uint32_t>> queries;
  for (size_t i = 0; i < sets.size(); i += 15) queries.push_back(sets[i]);

  CheckPipelineInvisible(
      [&] {
        return EngineConfig()
            .Sets(&sets)
            .K(4)
            .HashFunctions(16)
            .RehashDomain(128)
            .Seed(105)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sets(queries); }, /*chunk_size=*/3);
}

TEST(PipelinedStreamTest, SequencesIdenticalAcrossDeviceCounts) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 150;
  data_options.min_length = 15;
  data_options.max_length = 25;
  data_options.seed = 106;
  auto sequences = data::MakeSequences(data_options);
  std::vector<std::string> queries;
  for (size_t i = 0; i < sequences.size(); i += 12) {
    queries.push_back(sequences[i]);
  }

  CheckPipelineInvisible(
      [&] {
        return EngineConfig()
            .Sequences(&sequences)
            .K(2)
            .CandidateK(16)
            .Device(test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Sequences(queries); }, /*chunk_size=*/4);
}

TEST(PipelinedStreamTest, DocumentsIdenticalAcrossDeviceCounts) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 200;
  data_options.vocabulary = 500;
  data_options.seed = 107;
  auto documents = data::MakeDocuments(data_options);
  std::vector<std::vector<uint32_t>> queries;
  for (size_t i = 0; i < documents.size(); i += 16) {
    queries.push_back(documents[i]);
  }

  CheckPipelineInvisible(
      [&] {
        return EngineConfig().Documents(&documents).K(4).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Documents(queries); }, /*chunk_size=*/4);
}

TEST(PipelinedStreamTest, RelationalIdenticalAcrossDeviceCounts) {
  data::RelationalDatasetOptions data_options;
  data_options.num_rows = 300;
  data_options.seed = 108;
  auto table = data::MakeRelationalTable(data_options);
  auto queries = data::MakeRangeQueries(table, /*count=*/14,
                                        /*numeric_columns=*/3,
                                        /*numeric_halfwidth=*/50, /*seed=*/109);

  CheckPipelineInvisible(
      [&] {
        return EngineConfig().Table(&table).K(5).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Ranges(queries); }, /*chunk_size=*/4);
}

TEST(PipelinedStreamTest, CompiledIdenticalAcrossDeviceCounts) {
  auto workload = test::MakeRandomWorkload(800, 60, 6, 40, 5, 110);
  CheckPipelineInvisible(
      [&] {
        return EngineConfig().Index(&workload.index).K(7).Device(
            test::SharedTestDevice(2));
      },
      [&] { return SearchRequest::Compiled(workload.queries); },
      /*chunk_size=*/8);
}

/// A points stream whose match stage dominates: many long bucket lists
/// (a small re-hash domain over a large dataset) against a cheap LSH
/// transform, streamed in 4 chunks of 128 queries.
struct MatchBoundPointsStream {
  MatchBoundPointsStream() {
    data::ClusteredPointsOptions data_options;
    data_options.num_points = 20000;
    data_options.dim = 8;
    data_options.num_clusters = 16;
    data_options.seed = 111;
    dataset = data::MakeClusteredPoints(data_options);
    queries = data::MakeQueriesNear(dataset.points, 512, 0.1, 112);
    auto created = Engine::Create(EngineConfig()
                                      .Points(&dataset.points)
                                      .K(10)
                                      .HashFunctions(32)
                                      .RehashDomain(64)
                                      .Seed(113)
                                      .Device(test::SharedTestDevice(4)));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) engine = std::move(created).ValueOrDie();
  }

  Result<SearchResult> Stream() const {
    SearchStreamOptions options;
    options.chunk_size = 128;  // 4 chunks
    return engine->SearchStream(SearchRequest::Points(queries), options);
  }

  data::ClusteredPoints dataset;
  data::PointMatrix queries;
  std::unique_ptr<Engine> engine;
};

TEST(PipelinedStreamTest, ReportsOverlapOnMultiChunkRuns) {
  // Chunk k+1's LSH transform is launched before chunk k's execution
  // starts, so with per-stage work in the hundreds of microseconds the
  // intervals intersect.
  MatchBoundPointsStream stream;
  ASSERT_NE(stream.engine, nullptr);
  // Overlap is a measured wall-clock property; on an oversubscribed runner
  // a single stream's look-ahead threads can in principle all be scheduled
  // outside the execute windows. Retry a few times before judging.
  double overlap = 0;
  for (int attempt = 0; attempt < 5 && overlap == 0; ++attempt) {
    auto streamed = stream.Stream();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_GE(streamed->cumulative.overlap_seconds,
              streamed->profile.overlap_seconds);
    overlap = streamed->profile.overlap_seconds;
  }
  EXPECT_GT(overlap, 0);
}

TEST(PipelinedStreamTest, OverlapCountsTheTransformNotTheMatch) {
  // The look-ahead only transforms queries; it never waits on the
  // backend. So the reported overlap is bounded by the (cheap) transform
  // and stays far below the match seconds it runs beside — a look-ahead
  // that blocked on the executing chunk would report nearly all of them.
  MatchBoundPointsStream stream;
  ASSERT_NE(stream.engine, nullptr);
  auto streamed = stream.Stream();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_GT(streamed->profile.match_s, 0);
  EXPECT_LE(streamed->profile.overlap_seconds,
            0.25 * streamed->profile.match_s)
      << "match_s=" << streamed->profile.match_s;
}

TEST(PipelinedStreamTest, CancellationDrainsPreparedChunkWithoutDeadlock) {
  // A consumer error on chunk 1 cancels the stream while chunk 2's
  // prepared work is in flight. The prepared chunk must be discarded, the
  // error must surface unchanged, and the engine must keep serving.
  auto workload = test::MakeRandomWorkload(600, 50, 6, 24, 4, 112);
  sim::Device::Options device_options;
  device_options.num_workers = 2;
  sim::Device device(device_options);
  auto engine = Engine::Create(
      EngineConfig().Index(&workload.index).K(5).Device(&device));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  SearchStreamOptions options;
  options.chunk_size = 4;  // 6 chunks
  size_t delivered = 0;
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(workload.queries), options,
      [&](const SearchChunk& chunk) {
        ++delivered;
        if (chunk.index == 1) return Status::Internal("consumer gave up");
        return Status::OK();
      });
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(delivered, 2u);
  // Nothing but the resident index is left on the device.
  EXPECT_EQ(device.allocated_bytes(), workload.index.postings_bytes());

  // The engine still answers, and correctly.
  auto blocking = (*engine)->Search(SearchRequest::Compiled(workload.queries));
  ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const auto counts =
        test::BruteForceCounts(workload.index, workload.queries[q]);
    std::vector<uint32_t> got;
    for (const Hit& hit : blocking->queries[q].hits) {
      got.push_back(hit.match_count);
    }
    EXPECT_EQ(got, test::TopKCountMultiset(counts, 5)) << "query " << q;
  }
}

TEST(PipelinedStreamTest, BackendErrorMidStreamDrainsPreparedChunk) {
  // With the multi-load fallback disabled, a late chunk whose per-query
  // c-PQ arenas exceed device memory fails hard while its successor is
  // prepared ahead. The stream must surface ResourceExhausted (not hang,
  // not deadlock) and leave nothing but the resident index on the device.
  const uint32_t kNumObjects = 3000;
  const uint32_t kVocab = 100;
  auto workload = test::MakeRandomWorkload(kNumObjects, kVocab, 8, 0, 0, 113);
  const uint32_t kChunk = 8;
  Rng rng(114);
  std::vector<Query> queries;
  for (uint32_t q = 0; q < 2 * kChunk; ++q) {  // chunks 0-1: 2-item queries
    Query query;
    query.AddItem(static_cast<Keyword>(rng.UniformU64(kVocab)));
    query.AddItem(static_cast<Keyword>(rng.UniformU64(kVocab)));
    queries.push_back(std::move(query));
  }
  for (uint32_t q = 0; q < 2 * kChunk; ++q) {  // chunks 2-3: 48-item queries
    std::set<Keyword> keywords;
    while (keywords.size() < 48) {
      keywords.insert(static_cast<Keyword>(rng.UniformU64(kVocab)));
    }
    Query query;
    for (Keyword kw : keywords) query.AddItem(kw);
    queries.push_back(std::move(query));
  }

  MatchEngineOptions sizing;
  sizing.k = 5;
  const uint64_t per_small =
      MatchEngine::DeviceBytesPerQuery(kNumObjects, sizing, 2);
  const uint64_t per_big =
      MatchEngine::DeviceBytesPerQuery(kNumObjects, sizing, 48);
  ASSERT_LT(per_small, per_big);
  sim::Device::Options capacity;
  capacity.num_workers = 2;
  // Index + the small chunks' arenas fit (with task-buffer headroom); the
  // big chunks' arenas do not.
  capacity.memory_capacity_bytes = workload.index.postings_bytes() +
                                   kChunk * (per_small + per_big) / 2;
  sim::Device device(capacity);

  auto engine = Engine::Create(EngineConfig()
                                   .Index(&workload.index)
                                   .K(5)
                                   .AllowMultiLoad(false)
                                   .Device(&device));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  SearchStreamOptions options;
  options.chunk_size = kChunk;  // 4 chunks; chunk 2 fails, chunk 3 prepared
  size_t delivered = 0;
  auto streamed = (*engine)->SearchStream(
      SearchRequest::Compiled(queries), options, [&](const SearchChunk&) {
        ++delivered;
        return Status::OK();
      });
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(device.allocated_bytes(), workload.index.postings_bytes());
}

}  // namespace
}  // namespace genie
