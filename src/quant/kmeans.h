// Lloyd's k-means with k-means++ seeding.
//
// Used as the coarse quantizer of the IVF index and as the sub-space
// codebook trainer of PQ/OPQ. Deterministic given the seed, and the same
// bytes at any thread count: the distance passes run in parallel, every
// order-dependent reduction serially. Empty clusters are re-seeded to the
// point farthest from its centroid.
#ifndef RESINFER_QUANT_KMEANS_H_
#define RESINFER_QUANT_KMEANS_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace resinfer::quant {

struct KMeansOptions {
  int max_iterations = 25;
  // Stop when the relative decrease of the objective falls below this.
  double tolerance = 1e-4;
  uint64_t seed = 42;
};

struct KMeansResult {
  linalg::Matrix centroids;          // k x d
  std::vector<int32_t> assignments;  // n
  double inertia = 0.0;              // sum of squared distances
  int iterations = 0;
};

// Requires 1 <= k <= n.
KMeansResult KMeans(const float* data, int64_t n, int64_t d, int k,
                    const KMeansOptions& options = KMeansOptions());

// The nearest-centroid pass of k-means assignment, PQ encoding and every
// single-point lookup: point i (centroids.cols() floats at
// points + i * stride, i in [0, count)) gets the index of its closest
// centroid (squared L2) in assignments[i] and, when `distances` is
// non-null, that distance in distances[i]. Tiles of points are scored
// against four centroids per L2SqrTile call, whose lanes are bit-identical
// to L2Sqr; centroids are taken in index order and a later one wins only
// if strictly closer, so ties go to the lowest index exactly as in a
// one-at-a-time scan. Serial: callers parallelize over point ranges.
void AssignNearestCentroids(const linalg::Matrix& centroids,
                            const float* points, int64_t count,
                            int64_t stride, int32_t* assignments,
                            float* distances);

// Index of the centroid closest to x (squared L2); optionally outputs the
// distance. AssignNearestCentroids for one point.
int32_t NearestCentroid(const linalg::Matrix& centroids, const float* x,
                        float* distance = nullptr);

// Indices of the `nprobe` closest centroids, ascending by distance.
std::vector<int32_t> NearestCentroids(const linalg::Matrix& centroids,
                                      const float* x, int nprobe);

// Query-tiled ranking for the multi-query serving path: fills
// out[i * nprobe .. (i+1) * nprobe) with NearestCentroids(centroids,
// queries.Row(begin + i), nprobe) for i in [0, count) — identical ids in
// identical order (distances per (query, centroid) are bit-identical via
// the tiled kernel contract, and the selection logic is the same) — while
// streaming each centroid row once per group of queries instead of once
// per query. Requires 1 <= nprobe <= centroids.rows().
void NearestCentroidsBatch(const linalg::Matrix& centroids,
                           const linalg::Matrix& queries, int64_t begin,
                           int64_t count, int nprobe, int32_t* out);

}  // namespace resinfer::quant

#endif  // RESINFER_QUANT_KMEANS_H_
