/// Figure 11: running time with large query sets on the SIFT stand-in.
/// GENIE processes them as 1024-query chunks through the facade's streaming
/// pipeline (Engine::SearchStream over EngineBackend — the paper's strategy
/// of "breaking query set into several small batches"); the per-query-thread
/// GPU-LSH baseline takes the whole set in one launch.

#include <benchmark/benchmark.h>

#include "api/genie.h"
#include "baselines/gpu_lsh_engine.h"
#include "bench_common.h"
#include "bench_json.h"

namespace genie {
namespace bench {
namespace {

constexpr uint32_t kK = 100;
constexpr uint32_t kChunk = 1024;

/// Queries are cycled from the 1024-query pool to reach large counts.
std::vector<Query> CycledQueries(uint32_t total) {
  const auto& pool = SiftBench().queries;
  std::vector<Query> queries;
  queries.reserve(total);
  for (uint32_t q = 0; q < total; ++q) {
    queries.push_back(pool[q % pool.size()]);
  }
  return queries;
}

/// state.range(1): 1 = two-stage pipelining (chunk k+1's host query
/// transform overlaps chunk k's execution), 0 = strictly sequential chunks.
/// Compiled queries need no transform, so both arms do the same work and
/// the overlap counter reads 0; the modalities with a transform (LSH
/// hashing, n-gram / range lowering) are where pipelining pays.
void BM_GenieStreamed(benchmark::State& state) {
  const uint32_t total = static_cast<uint32_t>(state.range(0));
  const bool pipeline = state.range(1) != 0;
  auto engine = Engine::Create(EngineConfig()
                                   .Index(&SiftBench().index)
                                   .K(kK)
                                   .MaxCount(64)
                                   .Device(BenchDevice()));
  GENIE_CHECK(engine.ok());
  const std::vector<Query> queries = CycledQueries(total);
  SearchStreamOptions options;
  options.chunk_size = kChunk;
  options.pipeline = pipeline;
  double overlap_s = 0;
  for (auto _ : state) {
    auto results =
        (*engine)->SearchStream(SearchRequest::Compiled(queries), options);
    GENIE_CHECK(results.ok());
    GENIE_CHECK(results->queries.size() == total);
    overlap_s += results->profile.overlap_seconds;
    benchmark::DoNotOptimize(results);
  }
  state.counters["overlap_s"] = overlap_s;
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_GpuLshOneLaunch(benchmark::State& state) {
  const uint32_t total = static_cast<uint32_t>(state.range(0));
  const PointsBench& bench = SiftBench();
  baselines::GpuLshOptions options;
  // Wide buckets, no early stop: the short-list sort is GPU-LSH's real
  // cost (the k-selection bottleneck of Section VI-B5).
  options.num_tables = 128;
  options.functions_per_table = 2;
  options.candidate_budget_per_k = 0;
  options.p = 2;
  options.device = BenchDevice();
  auto engine = baselines::GpuLshEngine::Create(
      &bench.dataset.points, bench.gpu_lsh_family, options);
  GENIE_CHECK(engine.ok());
  data::PointMatrix queries(total, bench.query_points.dim());
  for (uint32_t q = 0; q < total; ++q) {
    auto from = bench.query_points.row(q % bench.query_points.num_points());
    std::copy(from.begin(), from.end(), queries.mutable_row(q).begin());
  }
  for (auto _ : state) {
    auto results = (*engine)->KnnBatch(queries, kK);
    GENIE_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }
}

void RegisterAll() {
  // The paper's sweep tops out at 65536 queries (64 chunks of 1024); the
  // largest point only registers at full scale to keep quick runs quick.
  std::vector<int64_t> totals{2048, 4096, 8192, 16384};
  if (ScaleFactor() >= 1.0) totals.push_back(65536);
  for (int64_t total : totals) {
    // Pipelined (transform k+1 overlaps execute k) vs strictly sequential
    // chunks: the same stream, same results, one knob.
    benchmark::RegisterBenchmark("Fig11/GENIE_1024_chunks_pipelined",
                                 BM_GenieStreamed)
        ->Args({total, 1})
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("Fig11/GENIE_1024_chunks_sequential",
                                 BM_GenieStreamed)
        ->Args({total, 0})
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("Fig11/GPU-LSH_one_launch",
                                 BM_GpuLshOneLaunch)
        ->Arg(total)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace genie

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  genie::bench::RegisterAll();
  genie::bench::JsonTeeReporter reporter("fig11");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
