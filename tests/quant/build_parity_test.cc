// Build-pass parity (ctest label: build-parity).
//
// The build passes — k-means++ seeding, Lloyd and final assignment, exact
// KNN for ground truth and corrector labelling, PQ training and encoding,
// OPQ's cross-correlation — run tiled and in parallel. Their outputs must
// stay bit-identical to the one-pair-at-a-time loops they replaced, so a
// saved index does not change with the thread count or the SIMD level. This suite keeps those loops
// as test-local references and asserts exact equality (centroid bytes,
// assignments, inertia, iterations, KNN ids and distance bits, labelled
// pairs, codebooks and codes, OPQ rotations) at every supported SIMD
// level with 1, 2 and 4 threads, on shapes whose point counts are not a
// multiple of any tile, whose centroid counts are not a multiple of 4,
// with duplicate points (ties), non-finite points, the empty-cluster
// re-seed path, and k == n.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/training_data.h"
#include "data/ground_truth.h"
#include "linalg/orthogonal.h"
#include "linalg/svd.h"
#include "quant/kmeans.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace resinfer {
namespace {

// ---------------------------------------------------------------------------
// Test-local references: the single-pair build loops as they were before
// the passes were tiled.

int32_t RefNearestCentroid(const linalg::Matrix& centroids, const float* x,
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

linalg::Matrix RefSeedPlusPlus(const float* data, int64_t n, int64_t d,
                               int k, Rng& rng) {
  linalg::Matrix centroids(k, d);
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  int64_t first = static_cast<int64_t>(rng.UniformInt(n));
  std::copy(data + first * d, data + (first + 1) * d, centroids.Row(0));
  for (int c = 1; c < k; ++c) {
    const float* last = centroids.Row(c - 1);
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      double dist =
          simd::L2Sqr(data + i * d, last, static_cast<std::size_t>(d));
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

// `reseeds` counts empty-cluster re-seeds, so a case can show it takes
// that path.
quant::KMeansResult RefKMeans(const float* data, int64_t n, int64_t d, int k,
                              const quant::KMeansOptions& options,
                              int* reseeds) {
  Rng rng(options.seed);
  quant::KMeansResult result;
  result.centroids = RefSeedPlusPlus(data, n, d, k, rng);
  result.assignments.assign(n, 0);
  std::vector<float> best_dist(n, 0.0f);
  double prev_inertia = std::numeric_limits<double>::max();
  *reseeds = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (int64_t i = 0; i < n; ++i) {
      result.assignments[i] =
          RefNearestCentroid(result.centroids, data + i * d, &best_dist[i]);
    }
    double inertia = 0.0;
    for (int64_t i = 0; i < n; ++i) inertia += best_dist[i];
    result.inertia = inertia;
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
        ++*reseeds;
        int64_t farthest = 0;
        for (int64_t i = 1; i < n; ++i)
          if (best_dist[i] > best_dist[farthest]) farthest = i;
        std::copy(data + farthest * d, data + (farthest + 1) * d,
                  result.centroids.Row(c));
        best_dist[farthest] = 0.0f;
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
  for (int64_t i = 0; i < n; ++i) {
    result.assignments[i] =
        RefNearestCentroid(result.centroids, data + i * d, &best_dist[i]);
  }
  result.inertia = 0.0;
  for (int64_t i = 0; i < n; ++i) result.inertia += best_dist[i];
  return result;
}

struct RefHeapEntry {
  float distance;
  int64_t id;
  bool operator<(const RefHeapEntry& other) const {
    if (distance != other.distance) return distance < other.distance;
    return id < other.id;
  }
};

std::vector<data::Neighbor> RefKnnSingle(const linalg::Matrix& base,
                                         const float* query, int k) {
  const int64_t n = base.rows();
  const std::size_t d = static_cast<std::size_t>(base.cols());
  k = static_cast<int>(std::min<int64_t>(k, n));
  std::priority_queue<RefHeapEntry> heap;
  for (int64_t i = 0; i < n; ++i) {
    float dist = simd::L2Sqr(base.Row(i), query, d);
    if (static_cast<int>(heap.size()) < k) {
      heap.push({dist, i});
    } else if (RefHeapEntry{dist, i} < heap.top()) {
      heap.pop();
      heap.push({dist, i});
    }
  }
  std::vector<data::Neighbor> result(heap.size());
  for (int64_t i = static_cast<int64_t>(heap.size()) - 1; i >= 0; --i) {
    result[i] = {heap.top().id, heap.top().distance};
    heap.pop();
  }
  return result;
}

std::vector<core::LabeledPair> RefCollectLabeledPairs(
    const linalg::Matrix& base, const linalg::Matrix& train_queries,
    const core::TrainingDataOptions& options) {
  const int64_t num_queries =
      std::min<int64_t>(train_queries.rows(), options.max_queries);
  const int64_t n = base.rows();
  const std::size_t d = static_cast<std::size_t>(base.cols());
  const int hard_negatives = options.negatives_per_query / 2;
  const int uniform_negatives = options.negatives_per_query - hard_negatives;
  const int extended_k =
      static_cast<int>(std::min<int64_t>(options.k + hard_negatives, n));
  std::vector<core::LabeledPair> pairs;
  Rng rng(options.seed);
  for (int64_t q = 0; q < num_queries; ++q) {
    const auto neighbors = RefKnnSingle(base, train_queries.Row(q),
                                        extended_k);
    const int k_here =
        static_cast<int>(std::min<std::size_t>(options.k, neighbors.size()));
    const float tau = neighbors[k_here - 1].distance;
    std::unordered_set<int64_t> seen_ids;
    for (const auto& nb : neighbors) {
      seen_ids.insert(nb.id);
      uint8_t label = nb.distance > tau ? 1 : 0;
      pairs.push_back({q, nb.id, tau, nb.distance, label});
    }
    int accepted = 0;
    int attempts = 0;
    const int max_attempts = uniform_negatives * 8;
    while (accepted < uniform_negatives && attempts < max_attempts) {
      ++attempts;
      int64_t id = static_cast<int64_t>(rng.UniformInt(n));
      if (seen_ids.count(id) > 0) continue;
      float exact = simd::L2Sqr(base.Row(id), train_queries.Row(q), d);
      uint8_t label = exact > tau ? 1 : 0;
      pairs.push_back({q, id, tau, exact, label});
      if (label == 1) ++accepted;
    }
  }
  return pairs;
}

// PQ training as it was: subsample, then one k-means per sub-space in
// order, each seeded with seed + s * 7919.
std::vector<linalg::Matrix> RefPqCodebooks(const float* data, int64_t n,
                                           int64_t d,
                                           const quant::PqOptions& options) {
  std::vector<float> sampled;
  const float* train = data;
  int64_t train_n = n;
  if (n > options.max_train_rows) {
    Rng rng(options.sample_seed);
    std::vector<int64_t> pick =
        rng.SampleWithoutReplacement(n, options.max_train_rows);
    sampled.resize(pick.size() * static_cast<std::size_t>(d));
    for (std::size_t i = 0; i < pick.size(); ++i) {
      const float* src = data + pick[i] * d;
      std::copy(src, src + d, sampled.data() + i * d);
    }
    train = sampled.data();
    train_n = static_cast<int64_t>(pick.size());
  }
  const int m = options.num_subspaces;
  const int64_t dsub = d / m;
  const int ksub =
      static_cast<int>(std::min<int64_t>(1 << options.nbits, train_n));
  std::vector<linalg::Matrix> codebooks;
  std::vector<float> sub(train_n * dsub);
  for (int s = 0; s < m; ++s) {
    for (int64_t i = 0; i < train_n; ++i) {
      const float* src = train + i * d + s * dsub;
      std::copy(src, src + dsub, sub.data() + i * dsub);
    }
    quant::KMeansOptions km = options.kmeans;
    km.seed = options.kmeans.seed + static_cast<uint64_t>(s) * 7919;
    int reseeds = 0;
    codebooks.push_back(
        RefKMeans(sub.data(), train_n, dsub, ksub, km, &reseeds).centroids);
  }
  return codebooks;
}

std::vector<uint8_t> RefPqEncode(const quant::PqCodebook& pq, const float* x) {
  std::vector<uint8_t> code(static_cast<std::size_t>(pq.code_size()), 0);
  for (int s = 0; s < pq.num_subspaces(); ++s) {
    const int32_t c = RefNearestCentroid(
        pq.centroids(s), x + s * pq.subspace_dim(), nullptr);
    quant::SetCodeAt(code.data(), s, static_cast<uint8_t>(c), pq.layout());
  }
  return code;
}

// M = sum_i x_i y_i^T as one serial double-precision loop.
linalg::Matrix RefCrossCorrelation(const float* x, const linalg::Matrix& y,
                                   int64_t n, int64_t d) {
  std::vector<double> acc(static_cast<std::size_t>(d) * d, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const float* xi = x + i * d;
    const float* yi = y.Row(i);
    for (int64_t r = 0; r < d; ++r) {
      double xr = xi[r];
      double* row = acc.data() + static_cast<std::size_t>(r) * d;
      for (int64_t c = 0; c < d; ++c) row[c] += xr * yi[c];
    }
  }
  linalg::Matrix m(d, d);
  for (int64_t r = 0; r < d; ++r)
    for (int64_t c = 0; c < d; ++c)
      m.At(r, c) =
          static_cast<float>(acc[static_cast<std::size_t>(r) * d + c]);
  return m;
}

struct RefOpq {
  linalg::Matrix rotation;
  std::vector<linalg::Matrix> codebooks;
};

// OPQ training as it was: subsample once, then alternate serial PQ
// training, one-at-a-time reconstruction and the serial Procrustes step.
RefOpq RefOpqTrain(const float* data, int64_t n, int64_t d,
                   const quant::OpqOptions& options) {
  std::vector<float> sampled;
  const float* train = data;
  int64_t train_n = n;
  if (n > options.pq.max_train_rows) {
    Rng rng(options.pq.sample_seed);
    std::vector<int64_t> pick =
        rng.SampleWithoutReplacement(n, options.pq.max_train_rows);
    sampled.resize(pick.size() * static_cast<std::size_t>(d));
    for (std::size_t i = 0; i < pick.size(); ++i) {
      const float* src = data + pick[i] * d;
      std::copy(src, src + d, sampled.data() + i * d);
    }
    train = sampled.data();
    train_n = static_cast<int64_t>(pick.size());
  }
  RefOpq model;
  if (options.random_init) {
    Rng rng(options.rotation_seed);
    model.rotation = linalg::RandomOrthonormal(d, rng);
  } else {
    model.rotation = linalg::Matrix::Identity(d);
  }
  linalg::Matrix rotated(train_n, d);
  linalg::Matrix reconstructed(train_n, d);
  quant::PqOptions pq_options = options.pq;
  pq_options.max_train_rows = train_n;
  const int64_t dsub = d / options.pq.num_subspaces;
  for (int iter = 0; iter < std::max(1, options.num_iterations); ++iter) {
    for (int64_t i = 0; i < train_n; ++i) {
      linalg::MatVec(model.rotation, train + i * d, rotated.Row(i));
    }
    model.codebooks = RefPqCodebooks(rotated.data(), train_n, d, pq_options);
    if (iter + 1 >= options.num_iterations) break;
    for (int64_t i = 0; i < train_n; ++i) {
      for (int s = 0; s < options.pq.num_subspaces; ++s) {
        const linalg::Matrix& book =
            model.codebooks[static_cast<std::size_t>(s)];
        const int32_t c =
            RefNearestCentroid(book, rotated.Row(i) + s * dsub, nullptr);
        std::copy(book.Row(c), book.Row(c) + dsub,
                  reconstructed.Row(i) + s * dsub);
      }
    }
    const linalg::Matrix m =
        RefCrossCorrelation(train, reconstructed, train_n, d);
    const linalg::SvdResult svd = linalg::Svd(m);
    model.rotation = linalg::MatMulBt(svd.v, svd.u);
  }
  return model;
}

// ---------------------------------------------------------------------------

bool SameBytes(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

constexpr int kThreadCounts[] = {1, 2, 4};

// Runs body(label) at every supported SIMD level and thread count; the
// reference is built once per level by ref(), single-threaded.
template <typename Ref, typename Body>
void ForEachLevelAndThreads(const Ref& ref, const Body& body) {
  for (simd::SimdLevel level : simd::SupportedLevels()) {
    simd::ScopedSimdLevel guard(level);
    const auto want = ref();
    for (int threads : kThreadCounts) {
      SetDefaultThreadCount(threads);
      body(want, std::string(simd::SimdLevelName(level)) + " threads=" +
                     std::to_string(threads));
    }
  }
  SetDefaultThreadCount(0);
}

// Rows of `m` copied over other rows, so exact distance ties occur.
void DuplicateRows(linalg::Matrix* m, int64_t every) {
  for (int64_t i = every; i < m->rows(); i += every) {
    std::copy(m->Row(i - every / 2), m->Row(i - every / 2) + m->cols(),
              m->Row(i));
  }
}

struct KMeansCase {
  int64_t n;
  int64_t d;
  int k;
  int max_iterations;
};

void ExpectKMeansParity(const linalg::Matrix& data, int k,
                        const quant::KMeansOptions& options,
                        int* ref_reseeds) {
  const int64_t n = data.rows();
  const int64_t d = data.cols();
  ForEachLevelAndThreads(
      [&] { return RefKMeans(data.data(), n, d, k, options, ref_reseeds); },
      [&](const quant::KMeansResult& want, const std::string& label) {
        const quant::KMeansResult got =
            quant::KMeans(data.data(), n, d, k, options);
        EXPECT_TRUE(SameBytes(want.centroids, got.centroids)) << label;
        EXPECT_EQ(want.assignments, got.assignments) << label;
        EXPECT_TRUE(SameBits(want.inertia, got.inertia))
            << label << " " << want.inertia << " vs " << got.inertia;
        EXPECT_EQ(want.iterations, got.iterations) << label;
      });
}

TEST(BuildParityTest, KMeansMatchesSinglePairLoops) {
  // n is no multiple of the 16-point tile or the 4-row batch, and is above
  // ParallelFor's 1024-item cutoff so the passes really split; k is no
  // multiple of 4.
  for (const KMeansCase& c : {KMeansCase{1031, 4, 13, 25},
                              KMeansCase{1031, 7, 13, 25},
                              KMeansCase{2053, 128, 45, 6},
                              KMeansCase{37, 7, 5, 25}}) {
    linalg::Matrix data = testing::RandomMatrix(c.n, c.d, 900 + c.d);
    DuplicateRows(&data, 10);
    quant::KMeansOptions options;
    options.max_iterations = c.max_iterations;
    options.seed = 77;
    int reseeds = 0;
    SCOPED_TRACE("n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                 " k=" + std::to_string(c.k));
    ExpectKMeansParity(data, c.k, options, &reseeds);
  }
}

TEST(BuildParityTest, KMeansEmptyClusterReseedAndKEqualsN) {
  // Three distinct points, each repeated: after three seeds the k-means++
  // total is zero, later seeds are random duplicates, ties send every
  // point to the lowest-index copy, and the duplicates' clusters empty.
  const int64_t d = 7;
  linalg::Matrix distinct = testing::RandomMatrix(3, d, 41);
  linalg::Matrix data(1203, d);
  for (int64_t i = 0; i < data.rows(); ++i) {
    std::copy(distinct.Row(i % 3), distinct.Row(i % 3) + d, data.Row(i));
  }
  quant::KMeansOptions options;
  options.seed = 5;
  int reseeds = 0;
  ExpectKMeansParity(data, 7, options, &reseeds);
  EXPECT_GT(reseeds, 0) << "the case no longer reaches the re-seed path";

  // k == n, above and below the parallel cutoff.
  for (int64_t n : {int64_t{1030}, int64_t{29}}) {
    linalg::Matrix points = testing::RandomMatrix(n, 4, 43);
    DuplicateRows(&points, 6);
    SCOPED_TRACE("k == n == " + std::to_string(n));
    ExpectKMeansParity(points, static_cast<int>(n), options, &reseeds);
  }
}

TEST(BuildParityTest, NearestCentroidMatchesSinglePairScan) {
  // Strided points (a PQ sub-space slice) against centroid counts around
  // the 4-row block, at every dimension the small-dim kernel specializes
  // plus the tiled path beyond it, and point counts around the 8- and
  // 16-lane tiles. Duplicated centroids make ties that must go to the
  // lower index; points holding NaN, +-Inf or 1e30 (whose square
  // overflows) have no distance below FLT_MAX and must get index 0 and
  // FLT_MAX.
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNonFinite[] = {std::numeric_limits<float>::quiet_NaN(), kInf,
                              -kInf, 1e30f};
  for (int64_t d : {1, 2, 3, 4, 5, 8, 15, 16, 17, 128}) {
    for (int k : {1, 3, 4, 13, 39}) {
      linalg::Matrix centroids = testing::RandomMatrix(k, d, 60 + k);
      if (k >= 4) {
        std::copy(centroids.Row(1), centroids.Row(1) + d,
                  centroids.Row(k - 1));
      }
      const int64_t stride = d + 3;
      for (int64_t count : {1, 7, 15, 16, 17, 37}) {
        linalg::Matrix storage = testing::RandomMatrix(count, stride, 61);
        // Some points sit exactly on the duplicated centroid.
        for (int64_t i = 0; i < count; i += 5) {
          std::copy(centroids.Row(k - 1), centroids.Row(k - 1) + d,
                    storage.Row(i));
        }
        // The last points each hold one non-finite or huge coordinate.
        std::vector<int64_t> non_finite_rows;
        for (int j = 0; j < 4 && count - 1 - j > 0; ++j) {
          const int64_t row = count - 1 - j;
          storage.Row(row)[(j * 5) % d] = kNonFinite[j];
          non_finite_rows.push_back(row);
        }
        for (simd::SimdLevel level : simd::SupportedLevels()) {
          simd::ScopedSimdLevel guard(level);
          const std::string label =
              std::string(simd::SimdLevelName(level)) +
              " d=" + std::to_string(d) + " k=" + std::to_string(k) +
              " count=" + std::to_string(count);
          std::vector<int32_t> got(count);
          std::vector<float> got_dist(count);
          quant::AssignNearestCentroids(centroids, storage.data(), count,
                                        stride, got.data(), got_dist.data());
          std::vector<int32_t> got_no_dist(count, -1);
          quant::AssignNearestCentroids(centroids, storage.data(), count,
                                        stride, got_no_dist.data(), nullptr);
          for (int64_t i = 0; i < count; ++i) {
            float want_dist = 0.0f;
            const int32_t want =
                RefNearestCentroid(centroids, storage.Row(i), &want_dist);
            EXPECT_EQ(got[i], want) << label << " i=" << i;
            EXPECT_TRUE(SameBits(got_dist[i], want_dist))
                << label << " i=" << i;
            EXPECT_EQ(got_no_dist[i], want) << label << " i=" << i;
            float one_dist = 0.0f;
            EXPECT_EQ(quant::NearestCentroid(centroids, storage.Row(i),
                                             &one_dist),
                      want)
                << label << " i=" << i;
            EXPECT_TRUE(SameBits(one_dist, want_dist)) << label;
          }
          for (int64_t row : non_finite_rows) {
            EXPECT_EQ(got[row], 0) << label << " row " << row;
            EXPECT_EQ(got_dist[row], std::numeric_limits<float>::max())
                << label << " row " << row;
          }
        }
      }
    }
  }
}

void ExpectSameNeighbors(const std::vector<data::Neighbor>& want,
                         const std::vector<data::Neighbor>& got,
                         const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << label << " rank " << i;
    EXPECT_TRUE(SameBits(want[i].distance, got[i].distance))
        << label << " rank " << i;
  }
}

TEST(BuildParityTest, ExactKnnMatchesSinglePairHeap) {
  // 1031 base rows: a short last 4-row group, and at d = 128 several base
  // blocks; 43 queries: a partial last query tile. Duplicated base rows
  // tie, and the id tie-break must hold across blocks and tiles.
  for (int64_t d : {4, 7, 128}) {
    linalg::Matrix base = testing::RandomMatrix(1031, d, 70 + d);
    DuplicateRows(&base, 9);
    // Far-apart duplicates, so a tie spans base blocks.
    std::copy(base.Row(3), base.Row(3) + d, base.Row(1030));
    linalg::Matrix queries = testing::RandomMatrix(43, d, 71);
    std::copy(base.Row(3), base.Row(3) + d, queries.Row(0));
    for (int k : {1, 15, 2000}) {
      const int64_t num_queries = 41;  // not every row of `queries`
      const std::string shape =
          " d=" + std::to_string(d) + " k=" + std::to_string(k);
      ForEachLevelAndThreads(
          [&] {
            std::vector<std::vector<data::Neighbor>> want;
            for (int64_t q = 0; q < queries.rows(); ++q) {
              want.push_back(RefKnnSingle(base, queries.Row(q), k));
            }
            return want;
          },
          [&](const std::vector<std::vector<data::Neighbor>>& want,
              const std::string& label) {
            const auto got = data::ExactKnn(base, queries, num_queries, k);
            ASSERT_EQ(static_cast<int64_t>(got.size()), num_queries);
            for (int64_t q = 0; q < num_queries; ++q) {
              ExpectSameNeighbors(want[q], got[q],
                                  label + shape + " q=" + std::to_string(q));
            }
            const auto ids = data::BruteForceKnn(base, queries, k);
            ASSERT_EQ(ids.size(), want.size());
            for (std::size_t q = 0; q < want.size(); ++q) {
              ASSERT_EQ(ids[q].size(), want[q].size()) << label << shape;
              for (std::size_t i = 0; i < ids[q].size(); ++i) {
                EXPECT_EQ(ids[q][i], want[q][i].id) << label << shape;
              }
            }
            ExpectSameNeighbors(
                want[5], data::BruteForceKnnSingle(base, queries.Row(5), k),
                label + shape + " single");
          });
    }
  }
}

TEST(BuildParityTest, CollectLabeledPairsMatchesSinglePairLabelling) {
  for (int64_t d : {7, 128}) {
    linalg::Matrix base = testing::RandomMatrix(1031, d, 80 + d);
    DuplicateRows(&base, 7);
    linalg::Matrix train = testing::RandomMatrix(37, d, 81);
    core::TrainingDataOptions options;
    options.k = 10;
    options.negatives_per_query = 21;
    options.max_queries = 33;
    options.seed = 3;
    ForEachLevelAndThreads(
        [&] { return RefCollectLabeledPairs(base, train, options); },
        [&](const std::vector<core::LabeledPair>& want,
            const std::string& label) {
          const auto got = core::CollectLabeledPairs(base, train, options);
          ASSERT_EQ(got.size(), want.size()) << label << " d=" << d;
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].query_index, want[i].query_index) << label;
            EXPECT_EQ(got[i].id, want[i].id) << label << " pair " << i;
            EXPECT_TRUE(SameBits(got[i].tau, want[i].tau)) << label;
            EXPECT_TRUE(SameBits(got[i].exact, want[i].exact)) << label;
            EXPECT_EQ(got[i].label, want[i].label) << label;
          }
        });
  }
}

struct PqCase {
  int64_t d;
  int m;
  int nbits;
};

TEST(BuildParityTest, PqTrainAndEncodeMatchSinglePairLoops) {
  // dsub 2, 7 and 4; byte-per-code and packed 4-bit layouts; training on
  // a subsample (max_train_rows < n); ksub clamped by a small sample.
  const int64_t n = 1500;
  for (const PqCase& c : {PqCase{4, 2, 4}, PqCase{28, 4, 8},
                          PqCase{128, 32, 4}, PqCase{7, 1, 8}}) {
    linalg::Matrix data = testing::RandomMatrix(n, c.d, 90 + c.d);
    DuplicateRows(&data, 11);
    quant::PqOptions options;
    options.num_subspaces = c.m;
    options.nbits = c.nbits;
    options.max_train_rows = c.d == 7 ? 200 : 1200;
    options.kmeans.max_iterations = 8;
    const std::string shape = " d=" + std::to_string(c.d) +
                              " m=" + std::to_string(c.m) +
                              " nbits=" + std::to_string(c.nbits);
    ForEachLevelAndThreads(
        [&] { return RefPqCodebooks(data.data(), n, c.d, options); },
        [&](const std::vector<linalg::Matrix>& want,
            const std::string& label) {
          const quant::PqCodebook pq =
              quant::PqCodebook::Train(data.data(), n, c.d, options);
          ASSERT_EQ(pq.num_subspaces(), c.m) << label << shape;
          for (int s = 0; s < c.m; ++s) {
            EXPECT_TRUE(SameBytes(want[static_cast<std::size_t>(s)],
                                  pq.centroids(s)))
                << label << shape << " s=" << s;
          }
          const std::vector<uint8_t> codes = pq.EncodeBatch(data.data(), n);
          const std::size_t bytes = static_cast<std::size_t>(pq.code_size());
          ASSERT_EQ(codes.size(), static_cast<std::size_t>(n) * bytes);
          std::vector<uint8_t> one(bytes);
          for (int64_t i = 0; i < n; ++i) {
            const std::vector<uint8_t> ref = RefPqEncode(pq, data.Row(i));
            EXPECT_EQ(std::memcmp(codes.data() + i * bytes, ref.data(),
                                  bytes),
                      0)
                << label << shape << " row " << i;
            if (i % 97 == 0) {
              std::fill(one.begin(), one.end(), uint8_t{0xff});
              pq.Encode(data.Row(i), one.data());
              EXPECT_EQ(one, ref) << label << shape << " Encode row " << i;
            }
          }
        });
  }
}

struct OpqCase {
  int64_t d;
  int m;
  int nbits;
  int64_t n;
  int64_t max_train_rows;
  bool random_init;
};

TEST(BuildParityTest, OpqTrainMatchesSerialReference) {
  // dsub 1, 2, 4, 8, 16 (the small-dim kernel) and 17 (the tiled path),
  // 4- and 8-bit codebooks, and one training sample smaller than n. n is
  // above ParallelFor's 1024-item cutoff so the passes really split.
  for (const OpqCase& c : {OpqCase{8, 8, 4, 1100, 65536, false},
                           OpqCase{8, 4, 8, 1100, 65536, true},
                           OpqCase{16, 4, 4, 1100, 65536, true},
                           OpqCase{16, 2, 8, 1100, 65536, false},
                           OpqCase{32, 2, 4, 1100, 65536, false},
                           OpqCase{34, 2, 8, 1300, 1100, true}}) {
    linalg::Matrix data = testing::RandomMatrix(c.n, c.d, 70 + c.d);
    DuplicateRows(&data, 9);
    quant::OpqOptions options;
    options.pq.num_subspaces = c.m;
    options.pq.nbits = c.nbits;
    options.pq.max_train_rows = c.max_train_rows;
    options.pq.kmeans.max_iterations = 6;
    options.num_iterations = 3;
    options.random_init = c.random_init;
    const std::string shape = " d=" + std::to_string(c.d) +
                              " dsub=" + std::to_string(c.d / c.m) +
                              " nbits=" + std::to_string(c.nbits);
    ForEachLevelAndThreads(
        [&] { return RefOpqTrain(data.data(), c.n, c.d, options); },
        [&](const RefOpq& want, const std::string& label) {
          const quant::OpqModel got =
              quant::OpqModel::Train(data.data(), c.n, c.d, options);
          EXPECT_TRUE(SameBytes(want.rotation, got.rotation()))
              << label << shape;
          ASSERT_EQ(got.codebook().num_subspaces(), c.m) << label << shape;
          for (int s = 0; s < c.m; ++s) {
            EXPECT_TRUE(SameBytes(want.codebooks[static_cast<std::size_t>(s)],
                                  got.codebook().centroids(s)))
                << label << shape << " s=" << s;
          }
        });
  }
}

}  // namespace
}  // namespace resinfer
