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
// from the nearest already-chosen seed. Each seed's distance pass runs in
// parallel, four points per L2SqrBatch4 call (lanes bit-identical to
// L2Sqr); the double total and the target scan stay one serial pass in
// index order, so the draws, and with them the seeds, do not change.
linalg::Matrix SeedPlusPlus(const float* data, int64_t n, int64_t d, int k,
                            Rng& rng) {
  linalg::Matrix centroids(k, d);
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());

  int64_t first = static_cast<int64_t>(rng.UniformInt(n));
  std::copy(data + first * d, data + (first + 1) * d, centroids.Row(0));

  for (int c = 1; c < k; ++c) {
    const float* last = centroids.Row(c - 1);
    ParallelFor(n, [&](int64_t begin, int64_t end) {
      const float* rows[simd::kBatchWidth];
      float dist[simd::kBatchWidth];
      for (int64_t i = begin; i < end; i += simd::kBatchWidth) {
        // A short last group repeats its final row; the extra lanes are
        // ignored.
        const int live =
            static_cast<int>(std::min<int64_t>(simd::kBatchWidth, end - i));
        for (int r = 0; r < simd::kBatchWidth; ++r) {
          rows[r] = data + (i + std::min(r, live - 1)) * d;
        }
        simd::L2SqrBatch4(last, rows, static_cast<std::size_t>(d), dist);
        for (int r = 0; r < live; ++r) {
          min_dist[i + r] =
              std::min(min_dist[i + r], static_cast<double>(dist[r]));
        }
      }
    });
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) total += min_dist[i];
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

// Assigns every point to its nearest centroid, tiles of points in
// parallel; best_dist receives the squared distances.
void AssignAll(const linalg::Matrix& centroids, const float* data, int64_t n,
               int64_t d, int32_t* assignments, float* best_dist) {
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    AssignNearestCentroids(centroids, data + begin * d, end - begin, d,
                           assignments + begin, best_dist + begin);
  });
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
    AssignAll(result.centroids, data, n, d, result.assignments.data(),
              best_dist.data());
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
  AssignAll(result.centroids, data, n, d, result.assignments.data(),
            best_dist.data());
  result.inertia = 0.0;
  for (int64_t i = 0; i < n; ++i) result.inertia += best_dist[i];
  return result;
}

void AssignNearestCentroids(const linalg::Matrix& centroids,
                            const float* points, int64_t count,
                            int64_t stride, int32_t* assignments,
                            float* distances) {
  RESINFER_CHECK(centroids.rows() >= 1);
  simd::AssignNearest(centroids.data(), centroids.rows(),
                      static_cast<std::size_t>(centroids.cols()), points,
                      count, stride, assignments, distances);
}

int32_t NearestCentroid(const linalg::Matrix& centroids, const float* x,
                        float* distance) {
  int32_t best = 0;
  AssignNearestCentroids(centroids, x, 1, centroids.cols(), &best, distance);
  return best;
}

namespace {

// The one centroid-ranking loop: out[i * nprobe .. (i+1) * nprobe) receives
// the ids of the nprobe centroids closest to point i (centroids.cols()
// floats at points + i * stride), ascending by distance. Tiles of points
// are scored against four centroids per L2SqrTile call, whose lanes are
// bit-identical to the single-pair L2Sqr; centroids are considered in id
// order and one replaces the heap top only if strictly closer, so ties
// resolve exactly as in a one-at-a-time loop. Requires
// 1 <= nprobe <= centroids.rows().
void RankCentroids(const linalg::Matrix& centroids, const float* points,
                   int64_t count, int64_t stride, int nprobe, int32_t* out) {
  const std::size_t d = static_cast<std::size_t>(centroids.cols());
  const int64_t num_centroids = centroids.rows();

  // Points per tile pass; bounds the live heaps and the tile output.
  constexpr int kTile = 16;
  using Entry = std::pair<float, int32_t>;  // (distance, id), max-heap

  for (int64_t q0 = 0; q0 < count; q0 += kTile) {
    const int nq = static_cast<int>(std::min<int64_t>(kTile, count - q0));
    const float* query_ptrs[kTile];
    for (int g = 0; g < nq; ++g) query_ptrs[g] = points + (q0 + g) * stride;
    std::priority_queue<Entry> heaps[kTile];

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

}  // namespace

void NearestCentroidsBatch(const linalg::Matrix& centroids,
                           const linalg::Matrix& queries, int64_t begin,
                           int64_t count, int nprobe, int32_t* out) {
  RESINFER_CHECK(nprobe > 0 && nprobe <= centroids.rows());
  RESINFER_CHECK(queries.cols() == centroids.cols());
  RESINFER_CHECK(begin >= 0 && begin + count <= queries.rows());
  if (count == 0) return;
  RankCentroids(centroids, queries.Row(begin), count, queries.cols(), nprobe,
                out);
}

std::vector<int32_t> NearestCentroids(const linalg::Matrix& centroids,
                                      const float* x, int nprobe) {
  nprobe = static_cast<int>(
      std::min<int64_t>(nprobe, centroids.rows()));
  RESINFER_CHECK(nprobe > 0);
  std::vector<int32_t> out(static_cast<std::size_t>(nprobe));
  RankCentroids(centroids, x, 1, centroids.cols(), nprobe, out.data());
  return out;
}

}  // namespace resinfer::quant
