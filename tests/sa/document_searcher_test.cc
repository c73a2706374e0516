#include "sa/document_searcher.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

#include "data/documents.h"

namespace genie {
namespace sa {
namespace {

DocumentSearchOptions BaseOptions(uint32_t k) {
  DocumentSearchOptions options;
  options.k = k;
  options.engine.device = test::SharedTestDevice(8);
  return options;
}

/// Binary inner product (the paper's interpretation of the match count on
/// documents, Section V-B).
uint32_t BinaryInnerProduct(const Document& a, const Document& b) {
  Document sa(a), sb(b);
  std::sort(sa.begin(), sa.end());
  sa.erase(std::unique(sa.begin(), sa.end()), sa.end());
  std::sort(sb.begin(), sb.end());
  sb.erase(std::unique(sb.begin(), sb.end()), sb.end());
  uint32_t dot = 0;
  for (uint32_t t : sa) {
    dot += std::binary_search(sb.begin(), sb.end(), t);
  }
  return dot;
}

TEST(DocumentSearcherTest, CreateValidates) {
  std::vector<Document> docs{{1, 2, 3}};
  EXPECT_FALSE(DocumentSearcher::Create(nullptr, BaseOptions(1)).ok());
  EXPECT_FALSE(DocumentSearcher::Create(&docs, BaseOptions(0)).ok());
  std::vector<Document> reserved{{1, 0xFFFFFFFFu}};
  EXPECT_EQ(DocumentSearcher::Create(&reserved, BaseOptions(1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DocumentSearcherTest, CountIsBinaryInnerProduct) {
  std::vector<Document> docs{
      {1, 2, 3, 4}, {3, 4, 5}, {9, 10}, {1, 1, 2, 2}  // duplicates collapse
  };
  auto searcher = DocumentSearcher::Create(&docs, BaseOptions(4));
  ASSERT_TRUE(searcher.ok());
  std::vector<Document> queries{{1, 2, 3}, {4, 5}, {42}};
  auto results = (*searcher)->SearchBatch(queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const TopKEntry& e : (*results)[q].entries) {
      EXPECT_EQ(e.count, BinaryInnerProduct(queries[q], docs[e.id]))
          << "query " << q << " doc " << e.id;
    }
  }
  // Query {1,2,3}: doc0 dot = 3 is the best.
  ASSERT_FALSE((*results)[0].entries.empty());
  EXPECT_EQ((*results)[0].entries[0].id, 0u);
  EXPECT_EQ((*results)[0].entries[0].count, 3u);
  // Query {42}: nothing matches.
  EXPECT_TRUE((*results)[2].entries.empty());
}

TEST(DocumentSearcherTest, DuplicateQueryTokensCollapse) {
  std::vector<Document> docs{{1, 2}, {1}};
  auto searcher = DocumentSearcher::Create(&docs, BaseOptions(2));
  ASSERT_TRUE(searcher.ok());
  std::vector<Document> queries{{1, 1, 1}};
  auto results = (*searcher)->SearchBatch(queries);
  ASSERT_TRUE(results.ok());
  for (const TopKEntry& e : (*results)[0].entries) {
    EXPECT_EQ(e.count, 1u);  // binary model: 1 despite triple token
  }
}

TEST(DocumentSearcherTest, TopKOnGeneratedCorpus) {
  data::DocumentDatasetOptions data_options;
  data_options.num_documents = 2000;
  data_options.vocabulary = 500;
  data_options.seed = 3;
  auto docs = data::MakeDocuments(data_options);
  auto searcher = DocumentSearcher::Create(&docs, BaseOptions(10));
  ASSERT_TRUE(searcher.ok());
  auto queries =
      data::MakeDocumentQueries(docs, 8, 0.3, 500, 1.05, 4);
  auto results = (*searcher)->SearchBatch(queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& entries = (*results)[q].entries;
    ASSERT_FALSE(entries.empty());
    // Entries descend by count and each count is the true inner product.
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_GE(entries[i - 1].count, entries[i].count);
    }
    // The best entry must be at least as good as any brute-force doc.
    uint32_t best = 0;
    for (size_t d = 0; d < docs.size(); ++d) {
      best = std::max(best, BinaryInnerProduct(queries[q], docs[d]));
    }
    EXPECT_EQ(entries[0].count, best);
  }
}

}  // namespace
}  // namespace sa
}  // namespace genie
