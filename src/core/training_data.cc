#include "core/training_data.h"

#include <algorithm>
#include <unordered_set>

#include "data/ground_truth.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/rng.h"

namespace resinfer::core {

std::vector<LabeledPair> CollectLabeledPairs(
    const linalg::Matrix& base, const linalg::Matrix& train_queries,
    const TrainingDataOptions& options) {
  RESINFER_CHECK(base.cols() == train_queries.cols());
  RESINFER_CHECK(options.k >= 1);
  const int64_t num_queries =
      std::min<int64_t>(train_queries.rows(), options.max_queries);
  RESINFER_CHECK(num_queries > 0);
  const int64_t n = base.rows();
  const std::size_t d = static_cast<std::size_t>(base.cols());

  // Exact extended KNN per training query (tiled, in parallel). The extension
  // beyond k supplies "hard" negatives: points just outside tau, which is
  // exactly the region an index's refinement phase evaluates. Training on
  // uniform negatives alone would place the decision boundary too
  // aggressively near tau (everything random is far away).
  const int hard_negatives = options.negatives_per_query / 2;
  const int uniform_negatives = options.negatives_per_query - hard_negatives;
  const int extended_k =
      static_cast<int>(std::min<int64_t>(options.k + hard_negatives, n));
  const std::vector<std::vector<data::Neighbor>> knn =
      data::ExactKnn(base, train_queries, num_queries, extended_k);

  std::vector<LabeledPair> pairs;
  pairs.reserve(static_cast<std::size_t>(num_queries) *
                (options.k + options.negatives_per_query));
  Rng rng(options.seed);

  for (int64_t q = 0; q < num_queries; ++q) {
    const auto& neighbors = knn[q];
    const int k_here =
        static_cast<int>(std::min<std::size_t>(options.k, neighbors.size()));
    const float tau = neighbors[k_here - 1].distance;

    std::unordered_set<int64_t> seen_ids;
    seen_ids.reserve(neighbors.size() * 2);
    // Positives: the true KNN (label 0). Hard negatives: ranks k+1..k+h,
    // labeled by their true comparison (distance ties keep label 0).
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const auto& nb = neighbors[i];
      seen_ids.insert(nb.id);
      uint8_t label = nb.distance > tau ? 1 : 0;
      pairs.push_back({q, nb.id, tau, nb.distance, label});
    }

    // Uniform negatives: random non-seen points with exact > tau. Uniform
    // sampling occasionally draws a point inside tau; such points are
    // labeled by their true comparison.
    int accepted = 0;
    int attempts = 0;
    const int max_attempts = uniform_negatives * 8;
    while (accepted < uniform_negatives && attempts < max_attempts) {
      ++attempts;
      int64_t id = static_cast<int64_t>(rng.UniformInt(n));
      if (seen_ids.count(id) > 0) continue;
      float exact =
          simd::L2Sqr(base.Row(id), train_queries.Row(q), d);
      uint8_t label = exact > tau ? 1 : 0;
      pairs.push_back({q, id, tau, exact, label});
      if (label == 1) ++accepted;
    }
  }
  return pairs;
}

std::vector<CorrectorSample> MaterializeSamples(
    const std::vector<LabeledPair>& pairs,
    const PairApproximator& approx_fn) {
  std::vector<CorrectorSample> samples;
  samples.reserve(pairs.size());
  for (const auto& pair : pairs) {
    CorrectorSample s;
    float extra = 0.0f;
    s.approx = approx_fn(pair.query_index, pair.id, &extra);
    s.extra = extra;
    s.tau = pair.tau;
    s.label = pair.label;
    samples.push_back(s);
  }
  return samples;
}

}  // namespace resinfer::core
