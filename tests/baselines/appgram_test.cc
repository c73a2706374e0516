#include "baselines/appgram_engine.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/sequences.h"
#include "sa/edit_distance.h"

namespace genie {
namespace baselines {
namespace {

TEST(AppGramEngineTest, CreateValidates) {
  std::vector<std::string> seqs{"abc"};
  EXPECT_FALSE(AppGramEngine::Create(nullptr, {}).ok());
  AppGramOptions zero_n;
  zero_n.ngram = 0;
  EXPECT_FALSE(AppGramEngine::Create(&seqs, zero_n).ok());
  AppGramOptions zero_k;
  zero_k.k = 0;
  EXPECT_FALSE(AppGramEngine::Create(&seqs, zero_k).ok());
}

/// gtest names each case after the raw bytes of its parameter (there is no
/// PrintTo), so the four bytes between `k` and `mutation` are a field rather
/// than padding: left as padding they printed whatever the stack held, and
/// the case names changed from build to build. The `name_bytes` values keep
/// the names the cases are registered under; the test never reads them.
struct ExactSweep {
  uint32_t k;
  uint32_t name_bytes;
  double mutation;
  uint64_t seed;
};
static_assert(sizeof(ExactSweep) == 24, "ExactSweep must have no padding");

class AppGramExactnessTest : public ::testing::TestWithParam<ExactSweep> {};

/// The defining property of the AppGram stand-in: it is ALWAYS exact,
/// whatever the mutation rate (it keeps verifying until the filter bound
/// proves optimality, falling back to a full scan when needed).
TEST_P(AppGramExactnessTest, AlwaysExactKnn) {
  const auto p = GetParam();
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 120;
  data_options.min_length = 12;
  data_options.max_length = 30;
  data_options.seed = p.seed;
  auto seqs = data::MakeSequences(data_options);
  AppGramOptions options;
  options.k = p.k;
  auto engine = AppGramEngine::Create(&seqs, options);
  ASSERT_TRUE(engine.ok());

  Rng rng(p.seed + 1);
  std::vector<std::string> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(data::MutateSequence(
        seqs[rng.UniformU64(seqs.size())], p.mutation, 26, &rng));
  }
  auto results = (*engine)->SearchBatch(queries);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    // Brute force kNN distance profile.
    std::vector<uint32_t> all;
    for (const auto& s : seqs) all.push_back(sa::EditDistance(queries[q], s));
    std::sort(all.begin(), all.end());
    ASSERT_EQ((*results)[q].size(), p.k) << "query " << q;
    for (uint32_t j = 0; j < p.k; ++j) {
      EXPECT_EQ((*results)[q][j].edit_distance, all[j])
          << "query " << q << " rank " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AppGramExactnessTest,
                         ::testing::Values(ExactSweep{1, 0, 0.1, 51},
                                           ExactSweep{1, 0, 0.5, 52},
                                           ExactSweep{3, 0xEFD00000u, 0.2, 53},
                                           ExactSweep{5, 0, 0.8, 54},
                                           ExactSweep{2, 0x00091E03u, 0.0, 55}));

TEST(AppGramEngineTest, QueryWithNoSharedGrams) {
  // A query over a disjoint alphabet shares no grams; the engine must fall
  // back to the full scan and still return the exact kNN.
  std::vector<std::string> seqs{"aaaaaaa", "aaabaaa", "bbbbbbb"};
  AppGramOptions options;
  options.k = 1;
  auto engine = AppGramEngine::Create(&seqs, options);
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> queries{"ccccccc"};
  auto results = (*engine)->SearchBatch(queries);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ((*results)[0].size(), 1u);
  EXPECT_EQ((*results)[0][0].edit_distance, 7u);
}

TEST(AppGramEngineTest, IdenticalQueryDistanceZero) {
  data::SequenceDatasetOptions data_options;
  data_options.num_sequences = 50;
  data_options.seed = 60;
  auto seqs = data::MakeSequences(data_options);
  AppGramOptions options;
  options.k = 1;
  auto engine = AppGramEngine::Create(&seqs, options);
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> queries{seqs[10]};
  auto results = (*engine)->SearchBatch(queries);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0][0].edit_distance, 0u);
}

}  // namespace
}  // namespace baselines
}  // namespace genie
