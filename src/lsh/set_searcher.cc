#include "lsh/set_searcher.h"

#include <algorithm>

#include "common/rng.h"
#include "index/index_builder.h"
#include "lsh/min_hash.h"
#include "lsh/murmur3.h"

namespace genie {
namespace lsh {

SetLshSearcher::SetLshSearcher(const SetDataset* sets,
                               std::shared_ptr<const SetLshFamily> family,
                               const SetSearchOptions& options)
    : sets_(sets),
      family_(std::move(family)),
      options_(options),
      encoder_(family_->num_functions(), options.transform.rehash_domain) {
  Rng rng(options_.transform.seed);
  rehash_seeds_.resize(family_->num_functions());
  for (auto& s : rehash_seeds_) s = rng.Next64();
}

Result<std::unique_ptr<SetLshSearcher>> SetLshSearcher::Create(
    const SetDataset* sets, std::shared_ptr<const SetLshFamily> family,
    const SetSearchOptions& options) {
  if (sets == nullptr) return Status::InvalidArgument("sets is null");
  if (family == nullptr) return Status::InvalidArgument("family is null");
  if (options.transform.rehash_domain == 0) {
    return Status::InvalidArgument("rehash_domain must be >= 1");
  }
  std::unique_ptr<SetLshSearcher> searcher(
      new SetLshSearcher(sets, std::move(family), options));
  GENIE_RETURN_NOT_OK(searcher->Init());
  return searcher;
}

Result<std::unique_ptr<SetLshSearcher>> SetLshSearcher::Restore(
    const SetDataset* sets, std::shared_ptr<const SetLshFamily> family,
    const SetSearchOptions& options, std::vector<uint64_t> rehash_seeds,
    InvertedIndex index, uint32_t appended_objects) {
  if (sets == nullptr) return Status::InvalidArgument("sets is null");
  if (family == nullptr) return Status::InvalidArgument("family is null");
  if (options.transform.rehash_domain == 0) {
    return Status::InvalidArgument("rehash_domain must be >= 1");
  }
  if (rehash_seeds.size() != family->num_functions()) {
    return Status::InvalidArgument("re-hash seed count mismatch");
  }
  if (index.num_objects() < sets->size() ||
      index.num_objects() > sets->size() + appended_objects) {
    return Status::InvalidArgument(
        "index object count does not match the sets dataset");
  }
  std::unique_ptr<SetLshSearcher> searcher(
      new SetLshSearcher(sets, std::move(family), options));
  if (index.vocab_size() != searcher->encoder_.vocab_size()) {
    return Status::InvalidArgument(
        "index vocabulary does not match the LSH transform");
  }
  searcher->rehash_seeds_ = std::move(rehash_seeds);
  searcher->index_ = std::move(index);
  GENIE_RETURN_NOT_OK(searcher->SetUpEngine());
  return searcher;
}

std::vector<Keyword> SetLshSearcher::Transform(
    std::span<const uint32_t> set) const {
  const uint32_t m = family_->num_functions();
  std::vector<Keyword> keywords(m);
  for (uint32_t i = 0; i < m; ++i) {
    const uint64_t raw = family_->RawHash(i, set);
    const uint32_t bucket =
        options_.transform.rehash
            ? static_cast<uint32_t>(Murmur3_64(raw, rehash_seeds_[i]) %
                                    options_.transform.rehash_domain)
            : static_cast<uint32_t>(raw % options_.transform.rehash_domain);
    keywords[i] = encoder_.EncodeUnchecked(i, bucket);
  }
  return keywords;
}

Status SetLshSearcher::Init() {
  InvertedIndexBuilder builder(encoder_.vocab_size());
  for (size_t i = 0; i < sets_->size(); ++i) {
    const auto keywords = Transform((*sets_)[i]);
    builder.AddObject(static_cast<ObjectId>(i), keywords);
  }
  GENIE_ASSIGN_OR_RETURN(index_, std::move(builder).Build(options_.build));
  return SetUpEngine();
}

Status SetLshSearcher::SetUpEngine() {
  MatchEngineOptions engine_options = options_.engine;
  engine_options.max_count = family_->num_functions();
  EngineBackendOptions backend_options = options_.backend;
  backend_options.shard_build = options_.build;
  GENIE_ASSIGN_OR_RETURN(
      engine_, EngineBackend::Create(&index_, engine_options,
                                     backend_options));
  return Status::OK();
}

Query SetLshSearcher::MakeQuery(std::span<const uint32_t> set) const {
  Query query;
  for (Keyword kw : Transform(set)) query.AddItem(kw);
  return query;
}

Result<std::vector<std::vector<AnnMatch>>> SetLshSearcher::MatchBatch(
    std::span<const std::vector<uint32_t>> queries) {
  std::vector<Query> compiled(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    compiled[i] = MakeQuery(queries[i]);
  }
  GENIE_ASSIGN_OR_RETURN(std::vector<QueryResult> raw,
                         engine_->ExecuteBatch(compiled));
  const double m = family_->num_functions();
  std::vector<std::vector<AnnMatch>> results(raw.size());
  for (size_t q = 0; q < raw.size(); ++q) {
    results[q].reserve(raw[q].entries.size());
    for (const TopKEntry& e : raw[q].entries) {
      results[q].push_back(AnnMatch{e.id, e.count, e.count / m});
    }
  }
  return results;
}

Result<std::vector<std::vector<ObjectId>>> SetLshSearcher::KnnBatch(
    std::span<const std::vector<uint32_t>> queries, uint32_t k_nn) {
  GENIE_ASSIGN_OR_RETURN(std::vector<std::vector<AnnMatch>> matches,
                         MatchBatch(queries));
  std::vector<std::vector<ObjectId>> results(matches.size());
  for (size_t q = 0; q < matches.size(); ++q) {
    std::vector<std::pair<double, ObjectId>> ranked;
    ranked.reserve(matches[q].size());
    for (const AnnMatch& m : matches[q]) {
      // Exact Jaccard re-rank (negated: sort ascending).
      ranked.emplace_back(
          -family_->CollisionProbability((*sets_)[m.id], queries[q]), m.id);
    }
    std::sort(ranked.begin(), ranked.end());
    results[q].reserve(std::min<size_t>(k_nn, ranked.size()));
    for (size_t i = 0; i < ranked.size() && i < k_nn; ++i) {
      results[q].push_back(ranked[i].second);
    }
  }
  return results;
}

}  // namespace lsh
}  // namespace genie
