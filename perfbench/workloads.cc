/// The four workloads of the end-to-end benchmark. Each run does a fixed
/// amount of work — a count of queries, requests and writes proportional
/// to --seconds, never a wall-clock deadline — so counters such as
/// compactions and worker calls repeat exactly from run to run. Each
/// workload keeps its busy threads (load generator, sim::Device workers,
/// serving dispatcher) within four cores.

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "api/genie.h"
#include "bench.h"
#include "checks.h"
#include "inputs.h"
#include "lsh/lsh_transformer.h"
#include "sim/device.h"

namespace perfbench {
namespace {

using genie::Engine;
using genie::EngineConfig;
using genie::QueryHits;
using genie::SearchProfile;
using genie::SearchRequest;

constexpr uint32_t kK = 10;
/// Engine builds per run; setup_s is their median.
constexpr int kSetups = 7;
constexpr uint32_t kCheckThreads = 4;
/// Equal runs of timed calls whose medians the end-to-end rates report.
constexpr size_t kSegments = 10;

// ann: SIFT stand-in, tau-ANN by E2LSH match count plus exact re-rank.
constexpr uint32_t kAnnPoints = 60000;
constexpr uint32_t kAnnDim = 32;
constexpr uint32_t kAnnClusters = 500;
constexpr double kAnnClusterStddev = 1.0;
constexpr double kAnnCenterRange = 10.0;
constexpr double kAnnQueryNoise = 0.5;
constexpr uint32_t kAnnQueries = 8192;
constexpr uint32_t kAnnHashFunctions = 64;
constexpr double kAnnBucketWidth = 4.0;
constexpr uint32_t kAnnRehashDomain = 8192;
constexpr uint32_t kAnnCandidates = 64;
constexpr uint64_t kAnnLshSeed = 7;
constexpr uint32_t kAnnDeviceWorkers = 2;
/// Stream rounds over the query set per second of --seconds.
constexpr double kAnnRoundsPerSecond = 0.2;

// online / writes: Tweets stand-in, word-overlap top-k over short documents.
constexpr uint32_t kDocs = 60000;
constexpr uint32_t kVocabulary = 20000;
constexpr double kZipfExponent = 1.05;
constexpr uint32_t kMinTokens = 5;
constexpr uint32_t kMaxTokens = 16;
constexpr double kQueryReplaceRate = 0.3;
constexpr uint32_t kHotQueries = 64;
/// Share of requests drawn from the hot set: far from both 1% and 50%, so
/// neither p50 nor p99 sits on the boundary between cache hits and misses.
constexpr double kHotShare = 0.2;
constexpr uint32_t kReadClients = 2;
constexpr uint32_t kDocDeviceWorkers = 1;
constexpr uint32_t kOnlineRequestsPerSecond = 1100;
constexpr uint32_t kWritesReadsPerSecond = 1000;
constexpr uint32_t kReadsPerInsert = 20;
constexpr uint32_t kInsertBatch = 32;
constexpr uint32_t kRemoveBatch = 16;
constexpr uint32_t kInsertsPerFlush = 40;
constexpr uint32_t kVerifyQueries = 256;

// scatter: Adult stand-in, range selection over four loopback workers.
constexpr uint32_t kRows = 32768;
constexpr uint32_t kNumericColumns = 6;
constexpr uint32_t kNumericBuckets = 1024;
constexpr uint32_t kCategoricalColumns = 8;
constexpr uint32_t kCategories = 8;
constexpr double kCategorySkew = 1.2;
constexpr uint32_t kRangeHalfwidth = 50;
constexpr uint32_t kRangeQueries = 4096;
constexpr uint32_t kScatterBatch = 64;
constexpr uint32_t kRemoteWorkers = 4;
constexpr double kScatterRoundsPerSecond = 0.6;

uint32_t Rounds(const Args& args, double per_second) {
  return std::max<uint32_t>(
      1, static_cast<uint32_t>(args.seconds * per_second + 0.5));
}

/// Runs fn(i) for i in [0, n) on kCheckThreads threads.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kCheckThreads) fn(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

std::unique_ptr<genie::sim::Device> MakeDevice(size_t workers) {
  genie::sim::Device::Options options;
  options.num_workers = workers;
  return std::make_unique<genie::sim::Device>(options);
}

/// Machine-wide CPU steal ticks so far (the 8th field of /proc/stat's
/// "cpu" line): time the host gave this machine's CPUs to other tenants.
uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu;
  for (uint64_t& field : fields) stat >> field;
  return cpu == "cpu" ? fields[7] : 0;
}

/// The median of the values measured while the host was quieter: those
/// whose CPU steal rate is at most the median rate. Steal comes from other
/// tenants of the host and comes in bursts; the work measured is the same
/// in every value.
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal_rate) {
  const double cutoff = Quantile(steal_rate, 0.5);
  std::vector<double> kept;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal_rate[i] <= cutoff) kept.push_back(values[i]);
  }
  return Quantile(kept, 0.5);
}

/// Builds the engine kSetups times (freeing each before the next) and keeps
/// the last; `*setup_s` gets the QuietMedian of the build times.
std::unique_ptr<Engine> SetUp(const EngineConfig& config, int builds,
                              double* setup_s, OpCounts* ops) {
  std::vector<double> times, steal_rate;
  std::unique_ptr<Engine> engine;
  for (int b = 0; b < builds; ++b) {
    engine.reset();
    const uint64_t steal = StealTicks();
    const int64_t start = NowNs();
    auto created = Engine::Create(config);
    times.push_back(SecondsSince(start));
    steal_rate.push_back(static_cast<double>(StealTicks() - steal) /
                         times.back());
    ops->Add("setup", 1, created.ok() ? 0 : 1);
    if (!created.ok()) {
      std::fprintf(stderr, "Engine::Create: %s\n",
                   created.status().ToString().c_str());
      return nullptr;
    }
    engine = std::move(*created);
  }
  *setup_s = QuietMedian(times, steal_rate);
  return engine;
}

/// The tier guard: the call ran where the workload means it to run.
bool OnTier(const SearchProfile& p, bool remote) {
  if (p.used_multi_load || p.devices != 1) return false;
  if (!p.plan_tier.empty() && p.plan_tier != (remote ? "remote" : "single-device")) {
    return false;
  }
  return remote ? p.workers == kRemoteWorkers : p.workers == 0;
}

bool LiveTierIs(const Engine& engine, bool remote) {
  const std::string want =
      remote ? "live: tier=remote workers=" + std::to_string(kRemoteWorkers)
             : std::string("live: tier=single-device");
  return engine.ExplainPlan().find(want) != std::string::npos;
}

/// Totals of one traced pass that feed the per-layer metrics.
struct Layers {
  double facade_s = 0;    // wall seconds of the facade calls
  double blocking_s = 0;  // SearchProfile stages on their blocking path
  double lsh_transform_s = 0;
  double scatter_overhead_s = 0;
  SearchProfile profile;  // summed per-call deltas
  std::vector<double> insert_ms;
  std::vector<double> remove_ms;
  double flush_s = 0;
  double compact_s = 0;
  double pause_s = 0;
  uint64_t compactions = 0;
  genie::ServingStats serving;
  uint64_t kernel_launches = 0;
  uint64_t h2d_bytes = 0;
  uint64_t d2h_bytes = 0;
  double peak_device_mb = 0;
};

enum class Path { kBlocking, kStream, kRemote };

/// Folds one facade call into `layers`. The blocking path of a call is its
/// queue wait, transfer, match, select, merge and verify stages; a
/// pipelined stream's look-ahead prepare runs beside it, and a remote
/// call's worker stages run inside its scatter.
void Account(const SearchProfile& p, double wall_s, Path path,
             Layers* layers) {
  layers->facade_s += wall_s;
  double blocking = p.queue_seconds + p.merge_s + p.verify_s;
  switch (path) {
    case Path::kBlocking:
      blocking += p.query_transfer_s + p.match_s + p.select_s;
      break;
    case Path::kStream:
      blocking += p.query_transfer_s - p.prepare_seconds + p.match_s +
                  p.select_s;
      break;
    case Path::kRemote: {
      blocking += p.scatter_seconds;
      double slowest = 0;
      for (const genie::WorkerProfile& w : p.per_worker) {
        slowest = std::max(slowest, w.call_s);
      }
      layers->scatter_overhead_s += p.scatter_seconds - slowest;
      break;
    }
  }
  layers->blocking_s += blocking;
  layers->profile.Accumulate(p);
}

void MergeCalls(Layers* into, const Layers& from) {
  into->facade_s += from.facade_s;
  into->blocking_s += from.blocking_s;
  into->scatter_overhead_s += from.scatter_overhead_s;
  into->profile.Accumulate(from.profile);
}

void ReadDevice(const genie::sim::DeviceStats& before,
                const genie::sim::DeviceStats& after, Layers* layers) {
  layers->kernel_launches = after.kernel_launches - before.kernel_launches;
  layers->h2d_bytes = after.bytes_h2d - before.bytes_h2d;
  layers->d2h_bytes = after.bytes_d2h - before.bytes_d2h;
  layers->peak_device_mb =
      static_cast<double>(after.peak_allocated_bytes) / (1024.0 * 1024.0);
}

/// Every per-layer metric, zero where the workload leaves a layer idle.
std::vector<Metric> LayerMetrics(const Layers& l, double trace_overhead) {
  const SearchProfile& p = l.profile;
  double network_s = 0, call_s = 0, worker_match_s = 0, worker_select_s = 0;
  double request_bytes = 0, response_bytes = 0, calls = 0, hedged = 0;
  for (const genie::WorkerProfile& w : p.per_worker) {
    network_s += w.network_s;
    call_s += w.call_s;
    worker_match_s += w.worker_match_s;
    worker_select_s += w.worker_select_s;
    request_bytes += static_cast<double>(w.request_bytes);
    response_bytes += static_cast<double>(w.response_bytes);
    calls += static_cast<double>(w.calls);
    hedged += static_cast<double>(w.hedged);
  }
  const genie::ServingStats& s = l.serving;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  return {
      {"api.unattributed_s", l.facade_s - l.blocking_s, "s"},
      {"lsh.transform_s", l.lsh_transform_s, "s"},
      {"core.prepare_s", p.prepare_seconds, "s"},
      {"core.query_transfer_s", p.query_transfer_s, "s"},
      {"core.match_s", p.match_s, "s"},
      {"core.select_s", p.select_s, "s"},
      {"core.merge_s", p.merge_s, "s"},
      {"core.scatter_s", p.scatter_seconds, "s"},
      {"core.scatter_overhead_s", l.scatter_overhead_s, "s"},
      {"core.overlap_s", p.overlap_seconds, "s"},
      {"index.insert_ms_p50", Quantile(l.insert_ms, 0.5), "ms"},
      {"index.remove_ms_p50", Quantile(l.remove_ms, 0.5), "ms"},
      {"index.flush_s", l.flush_s, "s"},
      {"index.compact_s", l.compact_s, "s"},
      {"index.pause_s", l.pause_s, "s"},
      {"index.compactions", static_cast<double>(l.compactions), "count"},
      {"serve.queue_ms_mean",
       ratio(s.total_queue_seconds * 1e3,
             static_cast<double>(s.coalesced_requests)),
       "ms"},
      {"serve.queue_ms_max", s.max_queue_seconds * 1e3, "ms"},
      {"serve.batch_requests_mean",
       ratio(static_cast<double>(s.coalesced_requests),
             static_cast<double>(s.batches)),
       "requests"},
      {"serve.executed_queries", static_cast<double>(s.executed_queries),
       "count"},
      {"serve.dedup_followers", static_cast<double>(s.dedup_followers),
       "count"},
      {"serve.cache_hit_share",
       ratio(static_cast<double>(s.cache_hits),
             static_cast<double>(s.submitted)),
       "fraction"},
      {"net.network_s", network_s, "s"},
      {"net.call_s", call_s, "s"},
      {"net.worker_match_s", worker_match_s, "s"},
      {"net.worker_select_s", worker_select_s, "s"},
      {"net.request_bytes", request_bytes, "bytes"},
      {"net.response_bytes", response_bytes, "bytes"},
      {"net.calls", calls, "count"},
      {"net.hedged", hedged, "count"},
      {"sim.kernel_launches", static_cast<double>(l.kernel_launches), "count"},
      {"sim.h2d_bytes", static_cast<double>(l.h2d_bytes), "bytes"},
      {"sim.d2h_bytes", static_cast<double>(l.d2h_bytes), "bytes"},
      {"sim.peak_device_mb", l.peak_device_mb, "MiB"},
      {"trace.overhead", trace_overhead, "fraction"},
  };
}

/// One timed call: when it completed, how long it took, and how many
/// queries (ann, scatter) or requests (online, writes) it answered.
struct Sample {
  int64_t done_ns = 0;
  double latency_ms = 0;
  uint32_t answered = 0;
};

/// Samples StealTicks() every 20 ms from construction until Stop().
class StealMonitor {
 public:
  StealMonitor() : thread_([this] { Loop(); }) {}
  ~StealMonitor() { Stop(); }
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// (time, cumulative steal ticks) samples, in time order.
  std::vector<std::pair<int64_t, uint64_t>> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      samples_.emplace_back(NowNs(), StealTicks());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(20),
                           [&] { return stop_; }));
    samples_.emplace_back(NowNs(), StealTicks());
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<int64_t, uint64_t>> samples_;
  std::thread thread_;  // last: starts once the members above exist
};

/// What one timed pass measured.
struct Pass {
  int64_t start_ns = 0;
  std::vector<Sample> samples;
  std::vector<std::pair<int64_t, uint64_t>> steal;  // StealMonitor samples
  double peak_rss_mb = 0;
  Layers layers;  // filled on the traced pass only
};

/// Cumulative steal ticks at time `ns` (the last sample at or before it).
uint64_t StealAt(const Pass& pass, int64_t ns) {
  uint64_t ticks = pass.steal.empty() ? 0 : pass.steal.front().second;
  for (const auto& [at, value] : pass.steal) {
    if (at > ns) break;
    ticks = value;
  }
  return ticks;
}

struct Rates {
  double qps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
};

/// Splits the samples, in completion order, into `segments` runs of equal
/// size and returns the QuietMedian of their qps, p50, p90 and p99.
Rates SegmentMedians(const Pass& pass, size_t segments) {
  std::vector<Sample> samples = pass.samples;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ns < b.done_ns;
            });
  segments = std::min(segments, samples.size());
  std::vector<double> qps, p50, p90, p99, steal_rate;
  int64_t begin = pass.start_ns;
  size_t lo = 0;
  for (size_t j = 0; j < segments; ++j) {
    const size_t hi = (j + 1) * samples.size() / segments;
    std::vector<double> latency;
    uint64_t answered = 0;
    for (size_t i = lo; i < hi; ++i) {
      latency.push_back(samples[i].latency_ms);
      answered += samples[i].answered;
    }
    const int64_t end = samples[hi - 1].done_ns;
    const double seconds =
        static_cast<double>(std::max<int64_t>(1, end - begin)) * 1e-9;
    qps.push_back(static_cast<double>(answered) / seconds);
    steal_rate.push_back(
        static_cast<double>(StealAt(pass, end) - StealAt(pass, begin)) /
        seconds);
    p50.push_back(Quantile(latency, 0.5));
    p90.push_back(Quantile(latency, 0.9));
    p99.push_back(Quantile(latency, 0.99));
    begin = end;
    lo = hi;
  }
  return {QuietMedian(qps, steal_rate), QuietMedian(p50, steal_rate),
          QuietMedian(p90, steal_rate), QuietMedian(p99, steal_rate)};
}

std::vector<Metric> EndToEnd(double setup_s, const Rates& rates,
                             double peak_rss_mb, double recall) {
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"qps", rates.qps, "1/s"},
      {"latency_ms_p50", rates.p50_ms, "ms"},
      {"latency_ms_p90", rates.p90_ms, "ms"},
      {"recall", recall, "fraction"},
  };
}

/// Shared tail of every workload: the traced run reports the per-layer
/// metrics of its traced pass, the untraced run the end-to-end ones.
void Report(const Args& args, const Tracer& tracer, size_t segments,
            double setup_s, const Pass& plain, const Pass& traced,
            double recall, Outcome* outcome) {
  const Rates rates = SegmentMedians(plain, segments);
  // p99 swings with the host's CPU steal far beyond any usable bound, so it
  // is printed for reading but not reported as a metric.
  std::printf("latency_ms_p99 %.6f (not a metric)\n", rates.p99_ms);
  if (!args.trace) {
    outcome->metrics = EndToEnd(setup_s, rates, plain.peak_rss_mb, recall);
    return;
  }
  const double traced_qps = SegmentMedians(traced, segments).qps;
  outcome->metrics = LayerMetrics(traced.layers, 1.0 - traced_qps / rates.qps);
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  std::printf("trace spans=%zu\n", tracer.num_spans());
}

// ---------------------------------------------------------------------------
// ann
// ---------------------------------------------------------------------------

struct AnnInputs {
  genie::data::PointMatrix points;
  genie::data::PointMatrix queries;
  std::shared_ptr<const genie::lsh::VectorLshFamily> family;
};

Pass AnnPass(Engine* engine, const AnnInputs& in, uint32_t rounds,
             genie::sim::Device* device, Tracer* tracer,
             std::vector<std::vector<QueryHits>>* answers, OpCounts* ops) {
  Pass pass;
  Tracer::Buffer* spans = tracer->NewBuffer();
  const genie::sim::DeviceStats device_before = device->stats();
  answers->assign(rounds, {});
  StealMonitor steal;
  pass.start_ns = NowNs();
  for (uint32_t r = 0; r < rounds; ++r) {
    const uint64_t request = tracer->NewRequest();
    ScopedSpan stream_span(spans, "api.SearchStream", 0, request);
    uint64_t chunks = 0;
    uint64_t off_tier = 0;
    int64_t last = NowNs();
    const int64_t round_start = last;
    auto on_chunk = [&](const genie::SearchChunk& chunk) {
      const int64_t now = NowNs();
      pass.samples.push_back(
          {now, static_cast<double>(now - last) * 1e-6,
           static_cast<uint32_t>(chunk.result.queries.size())});
      if (tracer->enabled()) {
        // A chunk's span runs from the previous delivery to its own.
        const uint64_t id = spans->Record("api.SearchStream.chunk",
                                          stream_span.id(), request, last, now);
        spans->Counter(id, "core.match_s", chunk.result.profile.match_s);
        spans->Counter(id, "core.select_s", chunk.result.profile.select_s);
        spans->Counter(id, "core.prepare_s",
                       chunk.result.profile.prepare_seconds);
        spans->Counter(id, "sim.kernel_launches",
                       static_cast<double>(device->stats().kernel_launches));
      }
      last = now;
      ++chunks;
      if (!OnTier(chunk.result.profile, false)) ++off_tier;
      return genie::Status::OK();
    };
    auto result = engine->SearchStream(SearchRequest::Points(in.queries), {},
                                       on_chunk);
    const double wall_s = SecondsSince(round_start);
    ops->Add("stream_chunk", chunks, off_tier);
    ops->Add("search_stream", 1, result.ok() ? 0 : 1);
    if (!result.ok()) {
      std::fprintf(stderr, "SearchStream: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    if (tracer->enabled()) {
      Account(result->profile, wall_s, Path::kStream, &pass.layers);
    }
    (*answers)[r] = std::move(result->queries);
  }
  pass.steal = steal.Stop();
  pass.peak_rss_mb = PeakRssMb();
  ReadDevice(device_before, device->stats(), &pass.layers);
  return pass;
}

}  // namespace

Outcome RunAnn(const Args& args, OpCounts* ops) {
  Outcome outcome;
  AnnInputs in;
  {
    Rng rng = StreamRng(args.seed, 1);
    in.points = MakeClusteredPoints(kAnnPoints, kAnnDim, kAnnClusters,
                                    kAnnClusterStddev, kAnnCenterRange, rng);
    in.queries = MakeQueriesNear(in.points, kAnnQueries, kAnnQueryNoise, rng);
  }
  genie::lsh::E2LshOptions lsh_options;
  lsh_options.num_functions = kAnnHashFunctions;
  lsh_options.dim = kAnnDim;
  lsh_options.bucket_width = kAnnBucketWidth;
  lsh_options.seed = kAnnLshSeed;
  auto family = genie::lsh::E2LshFamily::Create(lsh_options);
  if (!family.ok()) {
    std::fprintf(stderr, "E2LshFamily: %s\n",
                 family.status().ToString().c_str());
    return outcome;
  }
  in.family = std::shared_ptr<const genie::lsh::VectorLshFamily>(
      std::move(*family));

  auto device = MakeDevice(kAnnDeviceWorkers);
  const EngineConfig config = EngineConfig()
                                  .Points(&in.points)
                                  .K(kK)
                                  .VectorFamily(in.family)
                                  .RehashDomain(kAnnRehashDomain)
                                  .Seed(kAnnLshSeed)
                                  .ExactRerank(true)
                                  .CandidateK(kAnnCandidates)
                                  .Device(device.get());
  const uint32_t rounds = Rounds(args, kAnnRoundsPerSecond);
  double setup_s = 0;
  std::unique_ptr<Engine> engine = SetUp(config, kSetups, &setup_s, ops);
  if (engine == nullptr) {
    outcome.Fail("Engine::Create failed");
    return outcome;
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<std::vector<QueryHits>> answers;
  const Pass plain =
      AnnPass(engine.get(), in, rounds, device.get(), &off, &answers, ops);
  ops->Add("tier", 1, LiveTierIs(*engine, false) ? 0 : 1);
  Pass traced;
  if (args.trace) {
    double unused = 0;
    engine = SetUp(config, 1, &unused, ops);
    if (engine == nullptr) {
      outcome.Fail("Engine::Create failed");
      return outcome;
    }
    std::vector<std::vector<QueryHits>> traced_answers;
    traced = AnnPass(engine.get(), in, rounds, device.get(), &tracer,
                     &traced_answers, ops);
    // The LSH layer alone: the engine's own family and re-hash over the
    // same queries, once per stream round.
    Tracer::Buffer* spans = tracer.NewBuffer();
    genie::lsh::LshTransformOptions transform;
    transform.rehash_domain = kAnnRehashDomain;
    transform.seed = kAnnLshSeed;
    const genie::lsh::LshTransformer transformer(in.family, transform);
    size_t keywords = 0;
    const int64_t start = NowNs();
    for (uint32_t r = 0; r < rounds; ++r) {
      ScopedSpan span(spans, "lsh.MakeQuery", 0, tracer.NewRequest());
      for (uint32_t q = 0; q < in.queries.num_points(); ++q) {
        keywords += transformer.MakeQuery(in.queries.row(q)).total_keywords();
      }
    }
    traced.layers.lsh_transform_s = SecondsSince(start);
    if (keywords == 0) outcome.Fail("LSH transform produced no keywords");
  }

  // Checks, outside the timed passes: exact kNN by brute force.
  std::vector<double> kth(kAnnQueries);
  ParallelFor(kAnnQueries, [&](size_t q) {
    kth[q] = KthDistance(in.points, in.queries.row(static_cast<uint32_t>(q)),
                         kK);
  });
  uint64_t within = 0;
  uint64_t checked = 0;
  for (uint32_t r = 0; r < rounds; ++r) {
    if (answers[r].size() != kAnnQueries) {
      outcome.Fail("round " + std::to_string(r) + " answered " +
                   std::to_string(answers[r].size()) + " queries");
      continue;
    }
    for (uint32_t q = 0; q < kAnnQueries; ++q) {
      uint32_t close = 0;
      const std::string error = CheckAnn(answers[r][q], in.points,
                                         in.queries.row(q), kK, kth[q], &close);
      if (!error.empty()) {
        outcome.Fail("ann query " + std::to_string(q) + ": " + error);
      }
      within += close;
      checked += kK;
    }
  }
  const double recall =
      checked > 0 ? static_cast<double>(within) / static_cast<double>(checked)
                  : 0;
  Report(args, tracer, kSegments, setup_s, plain, traced, recall, &outcome);
  return outcome;
}

// ---------------------------------------------------------------------------
// online and writes
// ---------------------------------------------------------------------------

namespace {

struct DocInputs {
  std::vector<TokenDoc> docs;
  /// Distinct queries: [0, kHotQueries) the hot set, then cold queries.
  std::vector<TokenDoc> queries;
  /// Request i asks queries[schedule[i]]; cold queries appear once.
  std::vector<uint32_t> schedule;
  /// Cold queries no request asks: the post-run verification set.
  std::vector<uint32_t> verify;
};

DocInputs MakeDocInputs(uint64_t seed, uint32_t requests, uint32_t verify) {
  DocInputs in;
  const Zipf vocabulary(kVocabulary, kZipfExponent);
  Rng doc_rng = StreamRng(seed, 2);
  in.docs = MakeDocuments(kDocs, vocabulary, kMinTokens, kMaxTokens, doc_rng);

  const uint32_t hot_requests =
      static_cast<uint32_t>(requests * kHotShare + 0.5);
  const uint32_t cold = requests - hot_requests + verify;
  Rng query_rng = StreamRng(seed, 3);
  std::set<TokenDoc> seen;
  while (in.queries.size() < kHotQueries + cold) {
    const TokenDoc& source = in.docs[query_rng.Below(in.docs.size())];
    TokenDoc query =
        MakeDocQuery(source, kQueryReplaceRate, vocabulary, query_rng);
    if (seen.insert(TokenSet(query)).second) {
      in.queries.push_back(std::move(query));
    }
  }
  for (uint32_t h = 0; h < hot_requests; ++h) {
    in.schedule.push_back(static_cast<uint32_t>(query_rng.Below(kHotQueries)));
  }
  for (uint32_t c = 0; c < requests - hot_requests; ++c) {
    in.schedule.push_back(kHotQueries + c);
  }
  for (size_t i = in.schedule.size(); i > 1; --i) {
    std::swap(in.schedule[i - 1], in.schedule[query_rng.Below(i)]);
  }
  for (uint32_t v = 0; v < verify; ++v) {
    in.verify.push_back(kHotQueries + requests - hot_requests + v);
  }
  return in;
}

EngineConfig DocConfig(const DocInputs& in, genie::sim::Device* device) {
  return EngineConfig()
      .Documents(&in.docs)
      .K(kK)
      .Device(device)
      .Serving(genie::ServingOptions{});
}

struct Reply {
  QueryHits hits;
  int64_t sent_ns = 0;
  bool ok = false;
};

/// Closed-loop readers: each client sends its next request once the last
/// one is answered. Client c takes requests c, c + clients, ...
void RunReaders(Engine* engine, const DocInputs& in,
                genie::sim::Device* device, Tracer* tracer,
                std::vector<Reply>* replies, Pass* pass,
                std::atomic<uint64_t>* completed, OpCounts* ops) {
  const size_t requests = in.schedule.size();
  replies->assign(requests, Reply{});
  std::vector<std::vector<Sample>> samples(kReadClients);
  std::vector<Layers> layers(kReadClients);
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kReadClients; ++c) {
    clients.emplace_back([&, c] {
      Tracer::Buffer* spans = tracer->NewBuffer();
      uint64_t failed = 0;
      uint64_t attempted = 0;
      for (size_t i = c; i < requests; i += kReadClients) {
        const TokenDoc& query = in.queries[in.schedule[i]];
        const uint64_t request = tracer->NewRequest();
        ScopedSpan span(spans, "api.Search", 0, request);
        Reply& reply = (*replies)[i];
        reply.sent_ns = NowNs();
        auto result =
            engine->Search(SearchRequest::Documents({&query, size_t{1}}));
        const int64_t done = NowNs();
        const double wall_s = static_cast<double>(done - reply.sent_ns) * 1e-9;
        samples[c].push_back({done, wall_s * 1e3, 1});
        ++attempted;
        if (!result.ok() || result->queries.size() != 1 ||
            !OnTier(result->profile, false)) {
          ++failed;
        } else {
          reply.ok = true;
          reply.hits = std::move(result->queries[0]);
          if (tracer->enabled()) {
            Account(result->profile, wall_s, Path::kBlocking, &layers[c]);
            span.Counter("serve.queue_s", result->profile.queue_seconds);
            span.Counter("core.match_s", result->profile.match_s);
            span.Counter("serve.cache_hits",
                         static_cast<double>(engine->serving_stats().cache_hits));
            span.Counter("sim.kernel_launches",
                         static_cast<double>(device->stats().kernel_launches));
          }
        }
        completed->fetch_add(1);
        completed->notify_all();
      }
      ops->Add("search", attempted, failed);
    });
  }
  for (std::thread& client : clients) client.join();
  for (uint32_t c = 0; c < kReadClients; ++c) {
    pass->samples.insert(pass->samples.end(), samples[c].begin(),
                         samples[c].end());
    MergeCalls(&pass->layers, layers[c]);
  }
}

Pass OnlinePass(Engine* engine, const DocInputs& in,
                genie::sim::Device* device, Tracer* tracer,
                std::vector<Reply>* replies, OpCounts* ops) {
  Pass pass;
  const genie::sim::DeviceStats device_before = device->stats();
  std::atomic<uint64_t> completed{0};
  StealMonitor steal;
  pass.start_ns = NowNs();
  RunReaders(engine, in, device, tracer, replies, &pass, &completed, ops);
  pass.steal = steal.Stop();
  pass.peak_rss_mb = PeakRssMb();
  pass.layers.serving = engine->serving_stats();
  ReadDevice(device_before, device->stats(), &pass.layers);
  return pass;
}

/// Answers of `queries` on the engine, checked against the exact top-k of
/// `reference`; returns the share that passed.
double VerifyTopK(Engine* engine, const DocInputs& in,
                  const std::vector<uint32_t>& queries,
                  const std::vector<Reply>* replies,
                  const DocReference& reference, Outcome* outcome,
                  OpCounts* ops) {
  std::vector<QueryHits> answers(queries.size());
  std::vector<char> answered(queries.size(), 0);
  if (replies == nullptr) {
    uint64_t failed = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const TokenDoc& query = in.queries[queries[i]];
      auto result =
          engine->Search(SearchRequest::Documents({&query, size_t{1}}));
      if (!result.ok() || result->queries.size() != 1 ||
          !OnTier(result->profile, false)) {
        ++failed;
        continue;
      }
      answers[i] = std::move(result->queries[0]);
      answered[i] = 1;
    }
    ops->Add("verify_search", queries.size(), failed);
  } else {
    for (size_t i = 0; i < queries.size(); ++i) {
      answers[i] = (*replies)[i].hits;
      answered[i] = (*replies)[i].ok;
    }
  }
  std::vector<std::string> errors(queries.size());
  ParallelFor(queries.size(), [&](size_t i) {
    if (!answered[i]) return;
    thread_local std::vector<uint32_t> counts;
    reference.Counts(in.queries[queries[i]], &counts);
    errors[i] = CheckCountTopK(answers[i], counts, kK);
  });
  size_t passed = 0;
  size_t checked = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!answered[i]) continue;
    ++checked;
    if (errors[i].empty()) {
      ++passed;
    } else {
      outcome->Fail("documents query " + std::to_string(queries[i]) + ": " +
                    errors[i]);
    }
  }
  return checked > 0 ? static_cast<double>(passed) / checked : 0;
}

}  // namespace

Outcome RunOnline(const Args& args, OpCounts* ops) {
  Outcome outcome;
  const DocInputs in =
      MakeDocInputs(args.seed, kOnlineRequestsPerSecond * args.seconds, 0);
  auto device = MakeDevice(kDocDeviceWorkers);
  const EngineConfig config = DocConfig(in, device.get());
  double setup_s = 0;
  std::unique_ptr<Engine> engine = SetUp(config, kSetups, &setup_s, ops);
  if (engine == nullptr) {
    outcome.Fail("Engine::Create failed");
    return outcome;
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<Reply> replies;
  const Pass plain =
      OnlinePass(engine.get(), in, device.get(), &off, &replies, ops);
  ops->Add("tier", 1, LiveTierIs(*engine, false) ? 0 : 1);
  Pass traced;
  if (args.trace) {
    double unused = 0;
    engine = SetUp(config, 1, &unused, ops);
    if (engine == nullptr) {
      outcome.Fail("Engine::Create failed");
      return outcome;
    }
    std::vector<Reply> traced_replies;
    traced = OnlinePass(engine.get(), in, device.get(), &tracer,
                        &traced_replies, ops);
  }

  DocReference reference;
  for (uint32_t id = 0; id < in.docs.size(); ++id) {
    reference.Add(id, in.docs[id]);
  }
  const double recall = VerifyTopK(engine.get(), in, in.schedule, &replies,
                                   reference, &outcome, ops);
  Report(args, tracer, kSegments, setup_s, plain, traced, recall, &outcome);
  return outcome;
}

namespace {

/// What the writer did, for the checks and the index metrics.
struct WriterLog {
  std::vector<std::pair<uint32_t, const TokenDoc*>> inserted;  // id, doc
  std::vector<uint32_t> removed;
  std::vector<int64_t> removed_ns;  // by id; INT64_MAX = never removed
};

/// One writer beside the readers. Its schedule follows the count of
/// completed reads, not the clock: insert j waits for (j + 1) *
/// kReadsPerInsert reads; every odd insert from the third on removes half
/// of the batch inserted three steps before; every kInsertsPerFlush-th
/// insert is followed by a Flush.
void RunWriter(Engine* engine, const std::vector<std::vector<TokenDoc>>& batches,
               std::atomic<uint64_t>* completed, Tracer* tracer,
               WriterLog* log, Layers* layers, OpCounts* ops) {
  Tracer::Buffer* spans = tracer->NewBuffer();
  std::vector<std::vector<genie::ObjectId>> ids(batches.size());
  uint64_t seen_compactions = 0;
  const auto poll = [&](ScopedSpan* span) {
    if (!tracer->enabled()) return;
    const genie::MutationStats stats = engine->mutation_stats();
    span->Counter("index.compactions", static_cast<double>(stats.compactions));
    if (stats.compactions > seen_compactions) {
      layers->compact_s += stats.last_compact_seconds;
      layers->pause_s += stats.last_pause_seconds;
      seen_compactions = stats.compactions;
    }
  };
  uint64_t insert_failed = 0, remove_failed = 0, flush_failed = 0;
  uint64_t removes = 0, flushes = 0;
  for (size_t j = 0; j < batches.size(); ++j) {
    const uint64_t due = (j + 1) * kReadsPerInsert;
    for (uint64_t now = completed->load(); now < due; now = completed->load()) {
      completed->wait(now);
    }
    const uint64_t request = tracer->NewRequest();
    {
      ScopedSpan span(spans, "api.Insert", 0, request);
      const int64_t start = NowNs();
      auto inserted =
          engine->Insert(genie::InsertRequest::Documents(batches[j]));
      layers->insert_ms.push_back(SecondsSince(start) * 1e3);
      if (!inserted.ok() || inserted->size() != batches[j].size()) {
        ++insert_failed;
      } else {
        ids[j] = *inserted;
        for (size_t d = 0; d < ids[j].size(); ++d) {
          log->inserted.emplace_back(ids[j][d], &batches[j][d]);
        }
      }
      poll(&span);
    }
    if (j >= 3 && j % 2 == 1 && ids[j - 3].size() >= kRemoveBatch) {
      ScopedSpan span(spans, "api.Remove", 0, request);
      const std::span<const genie::ObjectId> victims(ids[j - 3].data(),
                                                     kRemoveBatch);
      const int64_t start = NowNs();
      const genie::Status status = engine->Remove(victims);
      const int64_t done = NowNs();
      layers->remove_ms.push_back(static_cast<double>(done - start) * 1e-6);
      ++removes;
      if (!status.ok()) {
        ++remove_failed;
      } else {
        for (genie::ObjectId id : victims) {
          if (id >= log->removed_ns.size()) {
            log->removed_ns.resize(id + 1, INT64_MAX);
          }
          log->removed_ns[id] = done;
          log->removed.push_back(id);
        }
      }
      poll(&span);
    }
    if ((j + 1) % kInsertsPerFlush == 0) {
      ScopedSpan span(spans, "api.Flush", 0, request);
      const int64_t start = NowNs();
      const genie::Status status = engine->Flush();
      layers->flush_s += SecondsSince(start);
      ++flushes;
      if (!status.ok()) ++flush_failed;
      poll(&span);
    }
  }
  ops->Add("insert", batches.size(), insert_failed);
  ops->Add("remove", removes, remove_failed);
  ops->Add("flush", flushes, flush_failed);
}

Pass WritesPass(Engine* engine, const DocInputs& in,
                const std::vector<std::vector<TokenDoc>>& batches,
                genie::sim::Device* device, Tracer* tracer,
                std::vector<Reply>* replies, WriterLog* log, OpCounts* ops) {
  Pass pass;
  const genie::sim::DeviceStats device_before = device->stats();
  std::atomic<uint64_t> completed{0};
  StealMonitor steal;
  pass.start_ns = NowNs();
  std::thread writer([&] {
    RunWriter(engine, batches, &completed, tracer, log, &pass.layers, ops);
  });
  Pass reads;
  RunReaders(engine, in, device, tracer, replies, &reads, &completed, ops);
  pass.steal = steal.Stop();
  writer.join();
  pass.samples = std::move(reads.samples);
  MergeCalls(&pass.layers, reads.layers);
  pass.peak_rss_mb = PeakRssMb();
  pass.layers.serving = engine->serving_stats();
  ReadDevice(device_before, device->stats(), &pass.layers);
  return pass;
}

}  // namespace

Outcome RunWrites(const Args& args, OpCounts* ops) {
  Outcome outcome;
  const uint32_t reads = kWritesReadsPerSecond * args.seconds;
  const DocInputs in = MakeDocInputs(args.seed, reads, kVerifyQueries);
  std::vector<std::vector<TokenDoc>> batches(reads / kReadsPerInsert);
  {
    const Zipf vocabulary(kVocabulary, kZipfExponent);
    Rng rng = StreamRng(args.seed, 4);
    for (auto& batch : batches) {
      batch = MakeDocuments(kInsertBatch, vocabulary, kMinTokens, kMaxTokens,
                            rng);
    }
  }
  auto device = MakeDevice(kDocDeviceWorkers);
  const EngineConfig config = DocConfig(in, device.get());
  double setup_s = 0;
  std::unique_ptr<Engine> engine = SetUp(config, kSetups, &setup_s, ops);
  if (engine == nullptr) {
    outcome.Fail("Engine::Create failed");
    return outcome;
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<Reply> replies;
  WriterLog log;
  const Pass plain = WritesPass(engine.get(), in, batches, device.get(), &off,
                                &replies, &log, ops);
  ops->Add("tier", 1, LiveTierIs(*engine, false) ? 0 : 1);
  Pass traced;
  if (args.trace) {
    double unused = 0;
    engine = SetUp(config, 1, &unused, ops);
    if (engine == nullptr) {
      outcome.Fail("Engine::Create failed");
      return outcome;
    }
    std::vector<Reply> traced_replies;
    WriterLog traced_log;
    traced = WritesPass(engine.get(), in, batches, device.get(), &tracer,
                        &traced_replies, &traced_log, ops);
    const genie::Status flushed = engine->Flush();
    ops->Add("flush", 1, flushed.ok() ? 0 : 1);
    traced.layers.compactions = engine->mutation_stats().compactions;
  }

  // Every response: counts true for the ids served, and no id whose Remove
  // returned before the request was sent.
  DocReference reference;
  for (uint32_t id = 0; id < in.docs.size(); ++id) {
    reference.Add(id, in.docs[id]);
  }
  std::sort(log.inserted.begin(), log.inserted.end());
  for (const auto& [id, doc] : log.inserted) reference.Add(id, *doc);
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok) continue;
    const TokenDoc query_set = TokenSet(in.queries[in.schedule[i]]);
    std::string error = CheckHitCounts(replies[i].hits, query_set, reference);
    if (error.empty()) {
      error = CheckNotRemoved(replies[i].hits, log.removed_ns,
                              replies[i].sent_ns);
    }
    if (!error.empty()) {
      outcome.Fail("writes request " + std::to_string(i) + ": " + error);
    }
  }
  // After the final Flush: exact top-k over the initial documents plus the
  // inserted minus the removed.
  if (!args.trace) {
    const genie::Status flushed = engine->Flush();
    ops->Add("flush", 1, flushed.ok() ? 0 : 1);
  }
  for (uint32_t id : log.removed) reference.Remove(id);
  std::vector<uint32_t> verify = in.verify;
  for (uint32_t h = 0; h < kHotQueries; ++h) verify.push_back(h);
  double recall = 0;
  if (!args.trace) {
    recall = VerifyTopK(engine.get(), in, verify, nullptr, reference,
                        &outcome, ops);
  }
  Report(args, tracer, kSegments, setup_s, plain, traced, recall, &outcome);
  return outcome;
}

// ---------------------------------------------------------------------------
// scatter
// ---------------------------------------------------------------------------

namespace {

Pass ScatterPass(Engine* engine,
                 const std::vector<genie::sa::RangeQuery>& queries,
                 uint32_t rounds, Tracer* tracer,
                 std::vector<std::vector<QueryHits>>* answers,
                 OpCounts* ops) {
  Pass pass;
  Tracer::Buffer* spans = tracer->NewBuffer();
  answers->assign(rounds, std::vector<QueryHits>(queries.size()));
  uint64_t attempted = 0;
  uint64_t failed = 0;
  StealMonitor steal;
  pass.start_ns = NowNs();
  for (uint32_t r = 0; r < rounds; ++r) {
    for (size_t first = 0; first < queries.size(); first += kScatterBatch) {
      const size_t count = std::min<size_t>(kScatterBatch,
                                            queries.size() - first);
      ScopedSpan span(spans, "api.Search", 0, tracer->NewRequest());
      const int64_t sent = NowNs();
      auto result = engine->Search(
          SearchRequest::Ranges({queries.data() + first, count}));
      const int64_t done = NowNs();
      const double wall_s = static_cast<double>(done - sent) * 1e-9;
      ++attempted;
      if (!result.ok() || result->queries.size() != count ||
          !OnTier(result->profile, true)) {
        ++failed;
        continue;
      }
      pass.samples.push_back(
          {done, wall_s * 1e3, static_cast<uint32_t>(count)});
      if (tracer->enabled()) {
        Account(result->profile, wall_s, Path::kRemote, &pass.layers);
        span.Counter("core.scatter_s", result->profile.scatter_seconds);
        span.Counter("core.merge_s", result->profile.merge_s);
        span.Counter("net.workers",
                     static_cast<double>(result->profile.per_worker.size()));
      }
      std::move(result->queries.begin(), result->queries.end(),
                (*answers)[r].begin() + first);
    }
  }
  pass.steal = steal.Stop();
  pass.peak_rss_mb = PeakRssMb();
  ops->Add("search_batch", attempted, failed);
  return pass;
}

}  // namespace

Outcome RunScatter(const Args& args, OpCounts* ops) {
  Outcome outcome;
  Rng rng = StreamRng(args.seed, 5);
  const genie::sa::RelationalTable table =
      MakeTable(kRows, kNumericColumns, kNumericBuckets, kCategoricalColumns,
                kCategories, kCategorySkew, rng);
  const std::vector<genie::sa::RangeQuery> queries =
      MakeRangeQueries(table, kNumericColumns, kRangeHalfwidth, kRangeQueries,
                       rng);
  // One device thread on the coordinator; loopback workers copy its
  // options, so the four workers hold one thread each.
  auto device = MakeDevice(1);
  const EngineConfig config =
      EngineConfig()
          .Table(&table)
          .K(kK)
          .Device(device.get())
          .Remote(genie::net::RemoteOptions::Loopback(kRemoteWorkers));
  const uint32_t rounds = Rounds(args, kScatterRoundsPerSecond);
  double setup_s = 0;
  std::unique_ptr<Engine> engine = SetUp(config, kSetups, &setup_s, ops);
  if (engine == nullptr) {
    outcome.Fail("Engine::Create failed");
    return outcome;
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<std::vector<QueryHits>> answers;
  const Pass plain = ScatterPass(engine.get(), queries, rounds, &off, &answers,
                                 ops);
  ops->Add("tier", 1, LiveTierIs(*engine, true) ? 0 : 1);
  Pass traced;
  if (args.trace) {
    double unused = 0;
    engine = SetUp(config, 1, &unused, ops);
    if (engine == nullptr) {
      outcome.Fail("Engine::Create failed");
      return outcome;
    }
    std::vector<std::vector<QueryHits>> traced_answers;
    traced = ScatterPass(engine.get(), queries, rounds, &tracer,
                         &traced_answers, ops);
  }

  std::vector<std::string> errors(queries.size());
  std::vector<uint32_t> passed(queries.size(), 0);
  ParallelFor(queries.size(), [&](size_t q) {
    thread_local std::vector<uint32_t> counts;
    TableCounts(table, queries[q], &counts);
    for (uint32_t r = 0; r < rounds; ++r) {
      const std::string error = CheckCountTopK(answers[r][q], counts, kK);
      if (error.empty()) {
        ++passed[q];
      } else if (errors[q].empty()) {
        errors[q] = "round " + std::to_string(r) + ": " + error;
      }
    }
  });
  uint64_t total_passed = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    total_passed += passed[q];
    if (!errors[q].empty()) {
      outcome.Fail("range query " + std::to_string(q) + " " + errors[q]);
    }
  }
  const double recall = static_cast<double>(total_passed) /
                        (static_cast<double>(queries.size()) * rounds);
  Report(args, tracer, kSegments, setup_s, plain, traced, recall, &outcome);
  return outcome;
}

}  // namespace perfbench
