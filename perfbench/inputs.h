#pragma once

/// \file inputs.h
/// Seeded input generators of the end-to-end benchmark. They depend on no
/// generator of the library (data/*), so the inputs stay the same when the
/// library's own generators change, and they use their own random source
/// so one seed gives the same inputs on every standard library.

#include <cstdint>
#include <vector>

#include "data/points.h"
#include "sa/relational.h"

namespace perfbench {

/// SplitMix64: small, fast and fully specified.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n);
  /// Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t state_;
};

/// Independent stream `stream` of the run seed `seed`.
Rng StreamRng(uint64_t seed, uint64_t stream);

/// Zipfian ranks over [0, n) with exponent s.
class Zipf {
 public:
  Zipf(uint32_t n, double s);
  uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

using TokenDoc = std::vector<uint32_t>;

/// Gaussian clusters with centers uniform in [-range, range]^dim.
genie::data::PointMatrix MakeClusteredPoints(uint32_t num_points, uint32_t dim,
                                             uint32_t clusters, double stddev,
                                             double range, Rng& rng);
/// Data points perturbed by N(0, noise) per coordinate.
genie::data::PointMatrix MakeQueriesNear(const genie::data::PointMatrix& data,
                                         uint32_t count, double noise,
                                         Rng& rng);

/// Short documents of [min_tokens, max_tokens] Zipf-drawn tokens; a token
/// may repeat inside a document, as words do in text.
std::vector<TokenDoc> MakeDocuments(uint32_t count, const Zipf& vocabulary,
                                    uint32_t min_tokens, uint32_t max_tokens,
                                    Rng& rng);
/// A held-out-style query: a copy of `doc` with each token replaced by a
/// fresh Zipf draw with probability `replace_rate`.
TokenDoc MakeDocQuery(const TokenDoc& doc, double replace_rate,
                      const Zipf& vocabulary, Rng& rng);
/// Sorted, de-duplicated tokens: the set the inner product is taken over.
TokenDoc TokenSet(const TokenDoc& doc);

/// Census-like table: `numeric` columns of `buckets` equal-width buckets
/// (normal around a per-column mean), then `categorical` columns of
/// `cardinality` Zipf-skewed categories.
genie::sa::RelationalTable MakeTable(uint32_t rows, uint32_t numeric,
                                     uint32_t buckets, uint32_t categorical,
                                     uint32_t cardinality, double skew,
                                     Rng& rng);
/// Range selections centred on random rows: numeric items span
/// [v - halfwidth, v + halfwidth] (clamped), categorical items match
/// exactly.
std::vector<genie::sa::RangeQuery> MakeRangeQueries(
    const genie::sa::RelationalTable& table, uint32_t numeric,
    uint32_t halfwidth, uint32_t count, Rng& rng);

}  // namespace perfbench
