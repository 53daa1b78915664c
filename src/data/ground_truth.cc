#include "data/ground_truth.h"

#include <algorithm>
#include <queue>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"

namespace resinfer::data {

namespace {

// Queries per L2SqrTile call, and so per tile of the parallel pass.
constexpr int kQueryTile = 8;
// Base rows scanned by every query of a shard before moving on, so a
// block is read from memory once per shard rather than once per tile.
constexpr std::size_t kBaseBlockBytes = std::size_t{256} << 10;

struct HeapEntry {
  float distance;
  int64_t id;
  // Max-heap by distance; among equal distances keep the larger id on top
  // so that the final ascending order breaks ties by smaller id.
  bool operator<(const HeapEntry& other) const {
    if (distance != other.distance) return distance < other.distance;
    return id < other.id;
  }
};

// Exact k nearest base rows of queries[0, num_queries) into out[q]. Every
// query sees the base rows in id order with the single-pair kernel's
// distances (L2SqrTile lanes are bit-identical to L2Sqr), so its heap
// evolves exactly as in a one-row-at-a-time scan.
void KnnScan(const linalg::Matrix& base, const float* const* queries,
             int64_t num_queries, int k, std::vector<Neighbor>* out) {
  const int64_t n = base.rows();
  const std::size_t d = static_cast<std::size_t>(base.cols());
  const int64_t block_rows = std::max<int64_t>(
      simd::kBatchWidth,
      static_cast<int64_t>(kBaseBlockBytes / (d * sizeof(float))) /
          simd::kBatchWidth * simd::kBatchWidth);

  std::vector<std::priority_queue<HeapEntry>> heaps(
      static_cast<std::size_t>(num_queries));
  const float* rows[simd::kBatchWidth];
  float tile[kQueryTile * simd::kBatchWidth];
  for (int64_t b0 = 0; b0 < n; b0 += block_rows) {
    const int64_t b1 = std::min(n, b0 + block_rows);
    for (int64_t q0 = 0; q0 < num_queries; q0 += kQueryTile) {
      const int nq =
          static_cast<int>(std::min<int64_t>(kQueryTile, num_queries - q0));
      for (int64_t i = b0; i < b1; i += simd::kBatchWidth) {
        // A short last group repeats its final row; the extra lanes are
        // ignored.
        const int live =
            static_cast<int>(std::min<int64_t>(simd::kBatchWidth, b1 - i));
        for (int r = 0; r < simd::kBatchWidth; ++r) {
          rows[r] = base.Row(i + std::min(r, live - 1));
        }
        simd::L2SqrTile(queries + q0, nq, rows, d, tile);
        for (int g = 0; g < nq; ++g) {
          auto& heap = heaps[static_cast<std::size_t>(q0 + g)];
          const float* lane = tile + g * simd::kBatchWidth;
          for (int r = 0; r < live; ++r) {
            const HeapEntry entry{lane[r], i + r};
            if (static_cast<int>(heap.size()) < k) {
              heap.push(entry);
            } else if (entry < heap.top()) {
              heap.pop();
              heap.push(entry);
            }
          }
        }
      }
    }
  }

  for (int64_t q = 0; q < num_queries; ++q) {
    auto& heap = heaps[static_cast<std::size_t>(q)];
    std::vector<Neighbor>& result = out[q];
    result.resize(heap.size());
    for (int64_t i = static_cast<int64_t>(heap.size()) - 1; i >= 0; --i) {
      result[static_cast<std::size_t>(i)] = {heap.top().id,
                                             heap.top().distance};
      heap.pop();
    }
  }
}

}  // namespace

std::vector<std::vector<Neighbor>> ExactKnn(const linalg::Matrix& base,
                                            const linalg::Matrix& queries,
                                            int64_t num_queries, int k) {
  RESINFER_CHECK(base.cols() == queries.cols());
  RESINFER_CHECK(num_queries >= 0 && num_queries <= queries.rows());
  k = static_cast<int>(std::min<int64_t>(k, base.rows()));
  RESINFER_CHECK(k > 0);

  std::vector<std::vector<Neighbor>> out(
      static_cast<std::size_t>(num_queries));
  const int64_t num_tiles = (num_queries + kQueryTile - 1) / kQueryTile;
  // Each tile scans the whole base, so even a few dozen are worth the
  // threads; ParallelFor's small-n cutoff would run them serially.
  ParallelForShards(num_tiles, DefaultThreadCount(),
                    [&](int64_t tile_begin, int64_t tile_end) {
    const int64_t begin = tile_begin * kQueryTile;
    const int64_t end = std::min(num_queries, tile_end * kQueryTile);
    std::vector<const float*> ptrs(static_cast<std::size_t>(end - begin));
    for (int64_t q = begin; q < end; ++q) {
      ptrs[static_cast<std::size_t>(q - begin)] = queries.Row(q);
    }
    KnnScan(base, ptrs.data(), end - begin, k, out.data() + begin);
  });
  return out;
}

std::vector<Neighbor> BruteForceKnnSingle(const linalg::Matrix& base,
                                          const float* query, int k) {
  k = static_cast<int>(std::min<int64_t>(k, base.rows()));
  RESINFER_CHECK(k > 0);
  std::vector<Neighbor> result;
  KnnScan(base, &query, 1, k, &result);
  return result;
}

std::vector<std::vector<int64_t>> BruteForceKnn(const linalg::Matrix& base,
                                                const linalg::Matrix& queries,
                                                int k) {
  const std::vector<std::vector<Neighbor>> knn =
      ExactKnn(base, queries, queries.rows(), k);
  std::vector<std::vector<int64_t>> out(knn.size());
  for (std::size_t q = 0; q < knn.size(); ++q) {
    out[q].reserve(knn[q].size());
    for (const Neighbor& nb : knn[q]) out[q].push_back(nb.id);
  }
  return out;
}

}  // namespace resinfer::data
