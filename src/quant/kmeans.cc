#include "quant/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace resinfer::quant {

namespace {

// k-means++: each next seed is drawn proportionally to its squared distance
// from the nearest already-chosen seed.
linalg::Matrix SeedPlusPlus(const float* data, int64_t n, int64_t d, int k,
                            Rng& rng) {
  linalg::Matrix centroids(k, d);
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());

  int64_t first = static_cast<int64_t>(rng.UniformInt(n));
  std::copy(data + first * d, data + (first + 1) * d, centroids.Row(0));

  for (int c = 1; c < k; ++c) {
    const float* last = centroids.Row(c - 1);
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      double dist = simd::L2Sqr(data + i * d, last,
                                static_cast<std::size_t>(d));
      min_dist[i] = std::min(min_dist[i], dist);
      total += min_dist[i];
    }
    int64_t chosen = n - 1;
    if (total > 0.0) {
      double target = rng.Uniform() * total;
      double acc = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        acc += min_dist[i];
        if (acc >= target) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<int64_t>(rng.UniformInt(n));
    }
    std::copy(data + chosen * d, data + (chosen + 1) * d, centroids.Row(c));
  }
  return centroids;
}

}  // namespace

KMeansResult KMeans(const float* data, int64_t n, int64_t d, int k,
                    const KMeansOptions& options) {
  RESINFER_CHECK(n >= 1 && d >= 1);
  RESINFER_CHECK(k >= 1 && k <= n);

  Rng rng(options.seed);
  KMeansResult result;
  result.centroids = SeedPlusPlus(data, n, d, k, rng);
  result.assignments.assign(n, 0);

  std::vector<float> best_dist(n, 0.0f);
  double prev_inertia = std::numeric_limits<double>::max();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step.
    ParallelForEach(n, [&](int64_t i, int /*thread*/) {
      float dist = 0.0f;
      result.assignments[i] =
          NearestCentroid(result.centroids, data + i * d, &dist);
      best_dist[i] = dist;
    });
    double inertia = 0.0;
    for (int64_t i = 0; i < n; ++i) inertia += best_dist[i];
    result.inertia = inertia;

    // Update step (double accumulation).
    std::vector<double> sums(static_cast<std::size_t>(k) * d, 0.0);
    std::vector<int64_t> counts(k, 0);
    for (int64_t i = 0; i < n; ++i) {
      int32_t c = result.assignments[i];
      ++counts[c];
      const float* row = data + i * d;
      double* sum = sums.data() + static_cast<std::size_t>(c) * d;
      for (int64_t j = 0; j < d; ++j) sum[j] += row[j];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the globally farthest point.
        int64_t farthest = 0;
        for (int64_t i = 1; i < n; ++i)
          if (best_dist[i] > best_dist[farthest]) farthest = i;
        std::copy(data + farthest * d, data + (farthest + 1) * d,
                  result.centroids.Row(c));
        best_dist[farthest] = 0.0f;  // avoid re-picking the same point
        continue;
      }
      float* centroid = result.centroids.Row(c);
      double inv = 1.0 / static_cast<double>(counts[c]);
      const double* sum = sums.data() + static_cast<std::size_t>(c) * d;
      for (int64_t j = 0; j < d; ++j)
        centroid[j] = static_cast<float>(sum[j] * inv);
    }

    if (prev_inertia < std::numeric_limits<double>::max() &&
        prev_inertia - inertia <= options.tolerance * prev_inertia) {
      break;
    }
    prev_inertia = inertia;
  }

  // Final assignment against the last centroid update.
  ParallelForEach(n, [&](int64_t i, int /*thread*/) {
    float dist = 0.0f;
    result.assignments[i] =
        NearestCentroid(result.centroids, data + i * d, &dist);
    best_dist[i] = dist;
  });
  result.inertia = 0.0;
  for (int64_t i = 0; i < n; ++i) result.inertia += best_dist[i];
  return result;
}

int32_t NearestCentroid(const linalg::Matrix& centroids, const float* x,
                        float* distance) {
  const std::size_t d = static_cast<std::size_t>(centroids.cols());
  int32_t best = 0;
  float best_dist = std::numeric_limits<float>::max();
  for (int64_t c = 0; c < centroids.rows(); ++c) {
    float dist = simd::L2Sqr(centroids.Row(c), x, d);
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<int32_t>(c);
    }
  }
  if (distance != nullptr) *distance = best_dist;
  return best;
}

void NearestCentroidsBatch(const linalg::Matrix& centroids,
                           const linalg::Matrix& queries, int64_t begin,
                           int64_t count, int nprobe, int32_t* out) {
  const std::size_t d = static_cast<std::size_t>(centroids.cols());
  const int64_t num_centroids = centroids.rows();
  RESINFER_CHECK(nprobe > 0 && nprobe <= num_centroids);
  RESINFER_CHECK(queries.cols() == centroids.cols());
  RESINFER_CHECK(begin >= 0 && begin + count <= queries.rows());

  // Queries per tile pass; bounds the live heaps and the tile output.
  constexpr int kTile = 16;
  using Entry = std::pair<float, int32_t>;  // (distance, id), max-heap

  for (int64_t q0 = 0; q0 < count; q0 += kTile) {
    const int nq = static_cast<int>(std::min<int64_t>(kTile, count - q0));
    const float* query_ptrs[kTile];
    for (int g = 0; g < nq; ++g) {
      query_ptrs[g] = queries.Row(begin + q0 + g);
    }
    std::priority_queue<Entry> heaps[kTile];

    // Same per-query centroid order and same keep-if-strictly-closer heap
    // logic as NearestCentroids, so ties resolve identically; the tile
    // kernel's lanes are bit-identical to the single-pair L2Sqr it uses.
    const auto consider = [&heaps, nprobe, nq](int64_t c,
                                               const float* dist) {
      for (int g = 0; g < nq; ++g) {
        auto& heap = heaps[g];
        if (static_cast<int>(heap.size()) < nprobe) {
          heap.emplace(dist[g], static_cast<int32_t>(c));
        } else if (dist[g] < heap.top().first) {
          heap.pop();
          heap.emplace(dist[g], static_cast<int32_t>(c));
        }
      }
    };

    float tile[kTile * simd::kBatchWidth];
    float single[kTile];
    const float* rows[simd::kBatchWidth];
    int64_t c = 0;
    for (; c + simd::kBatchWidth <= num_centroids;
         c += simd::kBatchWidth) {
      for (int r = 0; r < simd::kBatchWidth; ++r) {
        rows[r] = centroids.Row(c + r);
      }
      simd::L2SqrTile(query_ptrs, nq, rows, d, tile);
      for (int r = 0; r < simd::kBatchWidth; ++r) {
        for (int g = 0; g < nq; ++g) {
          single[g] = tile[g * simd::kBatchWidth + r];
        }
        consider(c + r, single);
      }
    }
    for (; c < num_centroids; ++c) {
      for (int g = 0; g < nq; ++g) {
        single[g] = simd::L2Sqr(centroids.Row(c), query_ptrs[g], d);
      }
      consider(c, single);
    }

    for (int g = 0; g < nq; ++g) {
      int32_t* row = out + (q0 + g) * nprobe;
      auto& heap = heaps[g];
      for (int64_t i = static_cast<int64_t>(heap.size()) - 1; i >= 0; --i) {
        row[i] = heap.top().second;
        heap.pop();
      }
    }
  }
}

std::vector<int32_t> NearestCentroids(const linalg::Matrix& centroids,
                                      const float* x, int nprobe) {
  const std::size_t d = static_cast<std::size_t>(centroids.cols());
  nprobe = static_cast<int>(
      std::min<int64_t>(nprobe, centroids.rows()));
  RESINFER_CHECK(nprobe > 0);

  using Entry = std::pair<float, int32_t>;  // (distance, id), max-heap
  std::priority_queue<Entry> heap;
  const auto consider = [&heap, nprobe](int64_t c, float dist) {
    if (static_cast<int>(heap.size()) < nprobe) {
      heap.emplace(dist, static_cast<int32_t>(c));
    } else if (dist < heap.top().first) {
      heap.pop();
      heap.emplace(dist, static_cast<int32_t>(c));
    }
  };
  // Four centroids per kernel call; its lanes are bit-identical to the
  // single-pair L2Sqr, and centroids are still considered in id order, so
  // ties resolve exactly as in a one-at-a-time loop.
  const int64_t num_centroids = centroids.rows();
  const float* rows[simd::kBatchWidth];
  float dist[simd::kBatchWidth];
  int64_t c = 0;
  for (; c + simd::kBatchWidth <= num_centroids; c += simd::kBatchWidth) {
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      rows[r] = centroids.Row(c + r);
    }
    simd::L2SqrBatch4(x, rows, d, dist);
    for (int r = 0; r < simd::kBatchWidth; ++r) consider(c + r, dist[r]);
  }
  for (; c < num_centroids; ++c) {
    consider(c, simd::L2Sqr(centroids.Row(c), x, d));
  }
  std::vector<int32_t> out(heap.size());
  for (int64_t i = static_cast<int64_t>(heap.size()) - 1; i >= 0; --i) {
    out[i] = heap.top().second;
    heap.pop();
  }
  return out;
}

}  // namespace resinfer::quant
