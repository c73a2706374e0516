#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rng::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng StreamRng(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x2545f4914f6cdd1dULL + stream);
  return Rng(mix.Next());
}

Zipf::Zipf(uint32_t n, double s) : cdf_(n) {
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

genie::data::PointMatrix MakeClusteredPoints(uint32_t num_points, uint32_t dim,
                                             uint32_t clusters, double stddev,
                                             double range, Rng& rng) {
  std::vector<float> centers(static_cast<size_t>(clusters) * dim);
  for (float& c : centers) {
    c = static_cast<float>((rng.Uniform() * 2 - 1) * range);
  }
  genie::data::PointMatrix points(num_points, dim);
  for (uint32_t i = 0; i < num_points; ++i) {
    const size_t center = rng.Below(clusters) * dim;
    std::span<float> row = points.mutable_row(i);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = centers[center + d] + static_cast<float>(rng.Normal() * stddev);
    }
  }
  return points;
}

genie::data::PointMatrix MakeQueriesNear(const genie::data::PointMatrix& data,
                                         uint32_t count, double noise,
                                         Rng& rng) {
  genie::data::PointMatrix queries(count, data.dim());
  for (uint32_t q = 0; q < count; ++q) {
    std::span<const float> source =
        data.row(static_cast<uint32_t>(rng.Below(data.num_points())));
    std::span<float> row = queries.mutable_row(q);
    for (uint32_t d = 0; d < data.dim(); ++d) {
      row[d] = source[d] + static_cast<float>(rng.Normal() * noise);
    }
  }
  return queries;
}

std::vector<TokenDoc> MakeDocuments(uint32_t count, const Zipf& vocabulary,
                                    uint32_t min_tokens, uint32_t max_tokens,
                                    Rng& rng) {
  std::vector<TokenDoc> docs(count);
  for (TokenDoc& doc : docs) {
    const uint32_t length =
        min_tokens +
        static_cast<uint32_t>(rng.Below(max_tokens - min_tokens + 1));
    doc.reserve(length);
    for (uint32_t t = 0; t < length; ++t) {
      doc.push_back(vocabulary.Sample(rng));
    }
  }
  return docs;
}

TokenDoc MakeDocQuery(const TokenDoc& doc, double replace_rate,
                      const Zipf& vocabulary, Rng& rng) {
  TokenDoc query = doc;
  for (uint32_t& token : query) {
    if (rng.Uniform() < replace_rate) token = vocabulary.Sample(rng);
  }
  return query;
}

TokenDoc TokenSet(const TokenDoc& doc) {
  TokenDoc set = doc;
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

genie::sa::RelationalTable MakeTable(uint32_t rows, uint32_t numeric,
                                     uint32_t buckets, uint32_t categorical,
                                     uint32_t cardinality, double skew,
                                     Rng& rng) {
  std::vector<std::vector<uint32_t>> columns;
  std::vector<uint32_t> cardinalities;
  for (uint32_t c = 0; c < numeric; ++c) {
    const double mean = buckets * (0.3 + 0.4 * rng.Uniform());
    const double stddev = buckets * (0.08 + 0.1 * rng.Uniform());
    std::vector<uint32_t> column(rows);
    for (uint32_t& v : column) {
      const double x = std::clamp(mean + rng.Normal() * stddev, 0.0,
                                  static_cast<double>(buckets - 1));
      v = static_cast<uint32_t>(x);
    }
    columns.push_back(std::move(column));
    cardinalities.push_back(buckets);
  }
  const Zipf categories(cardinality, skew);
  for (uint32_t c = 0; c < categorical; ++c) {
    std::vector<uint32_t> column(rows);
    for (uint32_t& v : column) v = categories.Sample(rng);
    columns.push_back(std::move(column));
    cardinalities.push_back(cardinality);
  }
  return genie::sa::RelationalTable(std::move(columns),
                                    std::move(cardinalities));
}

std::vector<genie::sa::RangeQuery> MakeRangeQueries(
    const genie::sa::RelationalTable& table, uint32_t numeric,
    uint32_t halfwidth, uint32_t count, Rng& rng) {
  std::vector<genie::sa::RangeQuery> queries(count);
  for (genie::sa::RangeQuery& query : queries) {
    const uint32_t row = static_cast<uint32_t>(rng.Below(table.num_rows()));
    for (uint32_t c = 0; c < table.num_columns(); ++c) {
      const uint32_t v = table.value(row, c);
      if (c < numeric) {
        const uint32_t lo = v > halfwidth ? v - halfwidth : 0;
        const uint32_t hi = std::min(v + halfwidth, table.cardinality(c) - 1);
        query.Add(c, lo, hi);
      } else {
        query.Add(c, v, v);
      }
    }
  }
  return queries;
}

}  // namespace perfbench
