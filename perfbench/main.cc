/// End-to-end benchmark of the GENIE facade.
///
///   genie_perfbench --workload ann|online|writes|scatter --seed N
///                   --seconds S --trace 0|1 [--trace-out FILE]
///   genie_perfbench --fingerprint
///
/// Prints the host fingerprint, the attempted / failed count of every kind
/// of operation, any check failure, and as its last line one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
/// again with spans recorded and reports the per-layer metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"

namespace perfbench {

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size());
  size_t at = static_cast<size_t>(rank);
  if (static_cast<double>(at) == rank && at > 0) --at;
  return values[std::min(at, values.size() - 1)];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t Tracer::Buffer::Begin(const char* name, uint64_t parent,
                               uint64_t request) {
  if (!tracer_->enabled_) return 0;
  Span span;
  span.name = name;
  span.id = tracer_->next_id_.fetch_add(1);
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

uint64_t Tracer::Buffer::Record(const char* name, uint64_t parent,
                                uint64_t request, int64_t start_ns,
                                int64_t end_ns) {
  const uint64_t id = Begin(name, parent, request);
  if (id != 0) {
    spans_.back().start_ns = start_ns;
    spans_.back().end_ns = end_ns;
  }
  return id;
}

void Tracer::Buffer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      return;
    }
  }
}

void Tracer::Buffer::Counter(uint64_t id, const char* name, double value) {
  if (id == 0) return;
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id != id) continue;
    for (int c = 0; c < 4; ++c) {
      if (it->counter_names[c] == nullptr) {
        it->counter_names[c] = name;
        it->counters[c] = value;
        return;
      }
    }
    return;
  }
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back();
  buffers_.back().tracer_ = this;
  return &buffers_.back();
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const Buffer& buffer : buffers_) total += buffer.spans_.size();
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Buffer& buffer : buffers_) {
    for (const Span& span : buffer.spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"counters\":{",
                   span.name, static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
      for (int c = 0; c < 4 && span.counter_names[c] != nullptr; ++c) {
        std::fprintf(out, "%s\"%s\":%.17g", c > 0 ? "," : "",
                     span.counter_names[c], span.counters[c]);
      }
      std::fprintf(out, "}}\n");
    }
  }
  return std::fclose(out) == 0;
}

namespace {

void PrintFingerprint() {
  std::printf("host nproc=%u simd=%s build=%s compiler=%s\n",
              std::thread::hardware_concurrency(),
              genie::simd::ArchName(genie::simd::ActiveOps().arch),
              GENIE_PERFBENCH_BUILD_TYPE, GENIE_PERFBENCH_COMPILER);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "genie_perfbench: %s\nusage: genie_perfbench --workload "
               "ann|online|writes|scatter --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] | --fingerprint\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--fingerprint") {
      PrintFingerprint();
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value of " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds == 0) return Usage("--seconds must be at least 1");

  Outcome (*run)(const Args&, OpCounts*) = nullptr;
  if (args.workload == "ann") run = RunAnn;
  if (args.workload == "online") run = RunOnline;
  if (args.workload == "writes") run = RunWrites;
  if (args.workload == "scatter") run = RunScatter;
  if (run == nullptr) return Usage("unknown --workload");

  PrintFingerprint();
  OpCounts ops;
  const Outcome outcome = run(args, &ops);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto& [kind, counts] : ops.Snapshot()) {
    std::printf("ops %s attempted=%llu failed=%llu\n", kind.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
    attempted += counts.first;
    failed += counts.second;
  }
  for (const std::string& error : outcome.errors) {
    std::printf("check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t m = 0; m < outcome.metrics.size(); ++m) {
    const Metric& metric = outcome.metrics[m];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m > 0 ? ", " : "", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
