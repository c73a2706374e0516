#pragma once

/// \file bench.h
/// Shared plumbing of the end-to-end benchmark: run arguments, operation
/// accounting, metric output and the in-memory span recorder.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Attempted / failed operations of one kind ("search", "insert", ...). An
/// operation fails when the library returns an error or answers on another
/// tier than the workload's.
class OpCounts {
 public:
  void Add(const std::string& kind, uint64_t attempted, uint64_t failed) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_[kind].first += attempted;
    counts_[kind].second += failed;
  }
  std::map<std::string, std::pair<uint64_t, uint64_t>> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the metrics of the requested kind
/// (end-to-end, or per-layer on the traced run) and the check verdict.
struct Outcome {
  std::vector<Metric> metrics;
  bool correct = true;
  std::vector<std::string> errors;  // first few check failures
  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// The p-quantile (nearest rank) of `values`.
double Quantile(std::vector<double> values, double p);

/// Peak resident set of this process so far, in MiB (VmHWM).
double PeakRssMb();

/// Span recorder of the traced run. Each thread records into its own
/// buffer; spans are kept in memory and written out once, when the run
/// ends. A span has a name, start, end, its parent span and the request
/// id shared by every span of one request, plus up to four counters the
/// benchmark snapshots from the library right after the call.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    const char* counter_names[4] = {nullptr, nullptr, nullptr, nullptr};
    double counters[4] = {0, 0, 0, 0};
  };
  class Buffer {
   public:
    /// Opens a span; returns its id (0 when tracing is off).
    uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
    /// Records a span that already ended; returns its id.
    uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                    int64_t start_ns, int64_t end_ns);
    void End(uint64_t id);
    /// Attaches a counter to span `id` (ignored past four or when off).
    void Counter(uint64_t id, const char* name, double value);

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// A buffer for the calling thread; valid as long as the Tracer.
  Buffer* NewBuffer();
  uint64_t NewRequest() { return enabled_ ? next_request_.fetch_add(1) : 0; }
  size_t num_spans() const;
  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mu_;
  std::deque<Buffer> buffers_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, const char* name, uint64_t parent,
             uint64_t request)
      : buffer_(buffer), id_(buffer->Begin(name, parent, request)) {}
  ~ScopedSpan() { buffer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }
  void Counter(const char* name, double value) {
    buffer_->Counter(id_, name, value);
  }

 private:
  Tracer::Buffer* buffer_;
  uint64_t id_;
};

/// Entry points of the four workloads (workloads.cc).
Outcome RunAnn(const Args& args, OpCounts* ops);
Outcome RunOnline(const Args& args, OpCounts* ops);
Outcome RunWrites(const Args& args, OpCounts* ops);
Outcome RunScatter(const Args& args, OpCounts* ops);

}  // namespace perfbench
