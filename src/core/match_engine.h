#pragma once

/// \file match_engine.h
/// The GENIE batch query executor (Section III-B, Fig. 3): the inverted
/// index's List Array is resident in device memory; the Position Map stays
/// on the host and resolves each query item to its (sub)postings lists; one
/// device block scans the lists of one query item (threads striding the
/// list), updating the query's c-PQ (Algorithm 1); selection then scans the
/// small hash table once (Theorem 3.1) — or, in the GEN-SPQ configuration,
/// updates a full Count Table and runs SPQ bucket selection (Appendix A).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/count_priority_queue.h"
#include "core/query.h"
#include "index/inverted_index.h"
#include "sim/device.h"

namespace genie {

struct MatchEngineOptions {
  /// Number of results per query.
  uint32_t k = 100;

  /// Upper bound on any object's match count for one query (determines the
  /// Bitmap Counter width and the ZipperArray size). 0 = derive per batch as
  /// the maximum number of query items, which is exact whenever one item
  /// can match an object at most once (true for LSH signatures, relational
  /// attributes, ordered n-grams and document words).
  uint32_t max_count = 0;

  enum class Selector {
    kCpq,            // GENIE: c-PQ + single hash-table scan
    kCountTableSpq,  // GEN-SPQ: full Count Table + bucket k-selection
    /// Packed Bitmap Counter + bucket k-selection directly over the packed
    /// counters: no gate, no hash table — immune to c-PQ hash-table
    /// pressure/overflow at the cost of a full counter scan per query.
    /// The planner promotes a kCpq configuration to this when observed
    /// overflows or per-selector select rates say the hash table dominates.
    kBucketSelect,
  };
  Selector selector = Selector::kCpq;

  /// Hash-table capacity multiplier over k * max_count (c-PQ only).
  uint32_t ht_slack = 2;
  /// Hard cap on the per-query hash-table slot count, rounded to a power of
  /// two (c-PQ only; testing/ablation). CapacityFor sizes the table past
  /// the Gate's k-per-level promotion bound, so without a cap the overflow
  /// escalation path cannot be reached deterministically. 0 = no cap.
  uint32_t ht_capacity_cap = 0;
  /// The modified-Robin-Hood expired-entry overwrite (ablation switch).
  bool robin_hood_expire = true;

  /// Threads per block for the scan kernel. On the simulator, threads of a
  /// block execute sequentially on one worker, so a small block_dim keeps
  /// per-thread dispatch overhead proportional to useful work.
  uint32_t block_dim = 8;
  /// Max (sub)lists one block takes (paper: 2 when load balancing). 0 = all
  /// lists of an item in one block.
  uint32_t max_lists_per_block = 0;

  /// Collect hash-table probe statistics (small overhead).
  bool collect_ht_stats = false;

  /// Device to run on; nullptr = sim::Device::Default().
  sim::Device* device = nullptr;
};

/// Wall-clock seconds and transfer volumes per stage (Table I / Table III).
struct MatchProfile {
  double index_transfer_s = 0;
  double query_transfer_s = 0;
  double match_s = 0;
  double select_s = 0;
  uint64_t index_bytes = 0;
  uint64_t query_bytes = 0;
  uint64_t result_bytes = 0;
  HashTableStats ht_stats;

  double total_query_s() const { return query_transfer_s + match_s + select_s; }
  void Accumulate(const MatchProfile& other);
  /// Inverse of Accumulate: removes an earlier snapshot, leaving the costs
  /// incurred since it was taken (per-batch / per-Search deltas).
  void Subtract(const MatchProfile& earlier);
};

/// Executes batches of match-count queries against one inverted index that
/// has been shipped to the device.
class MatchEngine {
 public:
  /// Transfers the index's List Array to the device (profiled as
  /// "index transfer"). The index must outlive the engine. Fails with
  /// ResourceExhausted when the List Array does not fit in device memory —
  /// the signal to use MultiLoadEngine.
  static Result<std::unique_ptr<MatchEngine>> Create(
      const InvertedIndex* index, const MatchEngineOptions& options);

  /// Runs one batch; returns one result per query, each with up to k
  /// entries in descending match-count order. Query transfer (Position-Map
  /// resolution of every item into its postings ranges + the task-list
  /// upload), match and select all run inside the call.
  Result<std::vector<QueryResult>> ExecuteBatch(
      std::span<const Query> queries);

  const MatchProfile& profile() const { return profile_; }
  void ResetProfile() { profile_ = MatchProfile{}; }

  const InvertedIndex& index() const { return *index_; }
  const MatchEngineOptions& options() const { return options_; }
  sim::Device* device() const { return device_; }

  /// Device memory one query occupies in a batch (Table IV): c-PQ layout
  /// bytes vs a full count-table row.
  static uint64_t DeviceBytesPerQuery(uint32_t num_objects,
                                      const MatchEngineOptions& options,
                                      uint32_t max_count);

  /// The per-batch count bound used when options.max_count == 0.
  static uint32_t DeriveMaxCount(std::span<const Query> queries);

  /// True when `status` is the c-PQ hash-table overflow signal (a
  /// ResourceExhausted distinct from memory exhaustion): the cost model
  /// records it so the planner can promote the batch to kBucketSelect,
  /// whose select stage has no hash table to overflow.
  static bool IsCpqOverflow(const Status& status);

 private:
  MatchEngine(const InvertedIndex* index, const MatchEngineOptions& options,
              sim::Device* device);

  Status TransferIndex();

  const InvertedIndex* index_;
  MatchEngineOptions options_;
  sim::Device* device_;
  sim::DeviceBuffer<ObjectId> device_postings_;
  MatchProfile profile_;
};

}  // namespace genie
