// Brute-force exact KNN, used as ground truth for recall measurement and to
// label training data for the learned correctors.
#ifndef RESINFER_DATA_GROUND_TRUTH_H_
#define RESINFER_DATA_GROUND_TRUTH_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace resinfer::data {

// ids[q] = the k base rows closest to queries row q, ascending by squared
// L2 distance (ties broken by id). k is clamped to base.rows().
std::vector<std::vector<int64_t>> BruteForceKnn(const linalg::Matrix& base,
                                                const linalg::Matrix& queries,
                                                int k);

struct Neighbor {
  int64_t id;
  float distance;
};

// Exact k nearest base rows, with distances, of each of the first
// num_queries rows of `queries`; row q equals
// BruteForceKnnSingle(base, queries.Row(q), k). Tiles of queries are
// scored against four base rows per L2SqrTile call (lanes bit-identical to
// L2Sqr, rows in id order, same heap and id tie-break), in parallel over
// query tiles. k is clamped to base.rows().
std::vector<std::vector<Neighbor>> ExactKnn(const linalg::Matrix& base,
                                            const linalg::Matrix& queries,
                                            int64_t num_queries, int k);

// Single-query variant; also returns the distances.
std::vector<Neighbor> BruteForceKnnSingle(const linalg::Matrix& base,
                                          const float* query, int k);

}  // namespace resinfer::data

#endif  // RESINFER_DATA_GROUND_TRUTH_H_
